(** Interprocedural propagation of VAL sets over the call graph (paper §2,
    §4.1): evaluate forward jump functions along edges, meet the results
    into callee VAL maps until stable.

    One solver serves both analyses.  Its values are {!Copy_lattice}'s,
    and [Config.analysis] decides only what an uninitialized global holds
    on entry to main ({!global_seed}): ⊥ for constant propagation, which
    then never meets a copy fact and computes Figure 1's fixpoint, and a
    copy of itself for copy propagation. *)

open Ipcp_frontend
open Ipcp_analysis

(** Worklist-iteration counters. *)
type stats = {
  mutable iterations : int;  (** worklist pops *)
  mutable jf_evaluations : int;
  mutable meets : int;
  mutable widened : int;  (** entries widened to ⊥ on budget exhaustion *)
}

(** All-zero counters — for consumers that synthesize a result without
    running the worklist (the intraprocedural baseline, a kept
    fixpoint). *)
val fresh_stats : unit -> stats

type val_map = Copy_lattice.t Prog.Param_map.t

(** A solved fixpoint. *)
type result = {
  vals : (string, val_map) Hashtbl.t;  (** per procedure *)
  stats : stats;
  degraded : Ipcp_support.Budget.reason list;
      (** non-empty when the budget ran out; the result is still sound
          (pending work was widened to ⊥) but may miss constants *)
}

(** What global [key] holds on entry to main under an analysis: its
    load-time [data] constant if initialized, else ⊥ under [`Const] and
    [Copy key] under [`Copy].  The solver seeds main with it, and the
    certifier's entry check compares main's bindings against it. *)
val global_seed :
  Config.analysis -> data:int option -> key:string -> Copy_lattice.t

(** The VAL of one parameter; ⊤ for parameters never touched. *)
val lookup : result -> string -> Prog.param -> Copy_lattice.t

(** CONSTANTS(p): the parameters of [p] whose VAL pins down an integer
    constant. *)
val constants_of : result -> string -> (Prog.param * int) list

(** Evaluate a jump function under a caller's VAL map: ⊥ in ⇒ ⊥ out,
    copies pass through a pass-through jump function only, any ⊤ in ⇒ ⊤
    out (optimistic), arithmetic folding otherwise.  Exposed for
    cloning. *)
val eval_jf : stats -> val_map -> Symbolic.t -> Copy_lattice.t

(** Solve.  [global_data] pairs every common global's key with its
    load-time [data] value, from which main's entry is seeded under
    [analysis] (the caller has them: {!Driver.global_data}).  [budget]
    (default: unlimited) bounds the worklist drain; on exhaustion the
    transitive callee closure of every pending caller is widened to ⊥
    and the result is marked degraded — sound, less precise. *)
val run :
  ?budget:Ipcp_support.Budget.t ->
  analysis:Config.analysis ->
  Callgraph.t ->
  site_jfs:Jump_function.site_jf list ->
  global_data:(string * int option) list ->
  result

val pp_result : Prog.t -> result Fmt.t
