(** Interprocedural MOD/REF side-effect summaries (Cooper–Kennedy style):
    which formals and globals each procedure may modify or reference,
    directly or through calls.  The paper's Table 3 shows these are
    decisive for constant propagation. *)

module Int_set : Set.S with type elt = int
module Str_set : Set.S with type elt = string

type summary = {
  mod_formals : Int_set.t;  (** positions whose by-ref actual may change *)
  mod_globals : Str_set.t;  (** by {!Ipcp_frontend.Prog.global_key} *)
  ref_globals : Str_set.t;
}

type t

val summary : t -> string -> summary

(** True when built by {!worst_case}: every query answers "modified". *)
val is_worst_case : t -> bool

val modifies_formal : t -> string -> int -> bool
val modifies_global : t -> string -> string -> bool

(** Direct effects + closure over the call graph, one SCC at a time,
    callees first (handles recursion). *)
val compute : Callgraph.t -> t

(** [compute_reusing ~prev ~unchanged cg]: {!compute}, copying each
    [unchanged] procedure's direct effects and summary from [prev]
    (counted in [modref.effects_copied]; computed ones in
    [modref.effects_computed]).  Only SCCs that hold a procedure that is
    not [unchanged], or call one whose summary changed, are closed again
    ([modref.sccs_closed]); the walk stops where a result equals [prev]'s.
    The summaries equal {!compute}'s.  [unchanged] procedures must have
    [prev]'s bodies and call sites. *)
val compute_reusing : prev:t -> unchanged:(string -> bool) -> Callgraph.t -> t

(** The procedures whose MOD footprint (modified formals and globals)
    differs from the one in the round [t] was computed from by
    {!compute_reusing}, a missing summary counting as empty.  [None] for
    a [t] computed from scratch, where every footprint counts as
    changed; [Some []] for {!worst_case}, whose answers never change. *)
val mod_changes : t -> string list option

(** The "no MOD information" configuration (Table 3, column 1). *)
val worst_case : Callgraph.t -> t

val pp : t Fmt.t
