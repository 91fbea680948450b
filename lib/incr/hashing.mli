(** Canonical procedure hashing for incremental re-analysis.

    The {b strict} hash pins the procedure exactly as written (names
    included) while excluding every program-wide parsing artifact —
    expression/statement ids and source locations — so two parses of the
    same text always agree.  Equal strict hashes license grafting the
    previous version's resolved [Prog.proc] (and with it the reused
    per-procedure IR) into the new program.

    The {b semantic} hash is additionally α/ordering-insensitive where
    {!Ipcp_certify.Metamorph} preserves semantics: formals are
    identified by position, locals by first-occurrence numbering,
    globals by their [(block, slot)] storage key; declaration aliases,
    declaration order of commons, and unused locals are invisible.
    Call targets, statement labels and [goto] targets stay literal.
    Equal semantic hashes mean the analysis semantics of the body are
    unchanged — the call-graph diff treats such procedures as
    unmodified. *)

open Ipcp_frontend

type mode = Strict | Semantic

val hash : mode -> Prog.proc -> string

(** [hash Strict] — includes the procedure name, so the hash determines
    the procedure completely (grafting relies on this). *)
val strict : Prog.proc -> string

(** [hash Semantic] — the α-insensitive body hash; excludes the
    procedure's own name. *)
val semantic : Prog.proc -> string

(** Per-procedure hashes of a whole program, keyed by procedure name. *)
val table : mode -> Prog.t -> (string, string) Hashtbl.t
