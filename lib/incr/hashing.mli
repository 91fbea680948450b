(** Canonical procedure hashing for incremental re-analysis.

    The {b semantic} hash is α/ordering-insensitive where
    {!Ipcp_certify.Metamorph} preserves semantics: formals are
    identified by position, locals by first-occurrence numbering,
    globals by their [(block, slot)] storage key; declaration aliases,
    declaration order of commons, and unused locals are invisible.
    Call targets, statement labels and [goto] targets stay literal.
    Equal semantic hashes mean the analysis semantics of the body are
    unchanged — the diff treats such procedures as unmodified.  It
    excludes the procedure's own name and every artifact of parsing
    (ids, locations), so two parses of the same text agree.

    Whether a procedure is unchanged {e as written}, which is what
    licenses grafting it, is decided by comparing it with its
    predecessor ({!Ipcp_frontend.Prog.equal_proc}), not by a hash. *)

open Ipcp_frontend

val semantic : Prog.proc -> string

(** Per-procedure semantic hashes of a whole program, keyed by procedure
    name. *)
val table : Prog.t -> (string, string) Hashtbl.t
