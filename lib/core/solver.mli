(** Interprocedural propagation of VAL sets over the call graph (paper §2,
    §4.1), generic over the analysis.

    {!Make} builds the worklist solver — evaluate forward jump functions
    along edges, meet the results into callee VAL maps until stable — for
    any {!Ipcp_analysis.Analysis_sig.S}.  The toplevel values are the
    constant-propagation instantiation ([Make (Const_analysis)]),
    preserving the historical constant-only API unchanged. *)

open Ipcp_frontend
open Ipcp_analysis

(** Worklist-iteration counters, shared by every instantiation. *)
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

(** A solved fixpoint over lattice elements ['elt].  Declared once,
    parametric, so results from different {!Make} instantiations share
    one nominal type and analysis-independent consumers (artifact
    serialization, incremental grafting) stay polymorphic. *)
type 'elt generic_result = {
  vals : (string, 'elt Prog.Param_map.t) Hashtbl.t;  (** per procedure *)
  stats : stats;
  degraded : Ipcp_support.Budget.reason list;
      (** non-empty when the budget ran out; the result is still sound
          (pending work was widened to ⊥) but may miss constants *)
}

type val_map = Const_lattice.t Prog.Param_map.t
type result = Const_lattice.t generic_result

(** The solver over one analysis.  Everything not listed here —
    initial-map construction, the drain loop, the per-caller site
    index — is an internal of the iteration and deliberately
    unexported. *)
module Make (A : Analysis_sig.S) : sig
  (** The VAL of one parameter; ⊤ for parameters never touched. *)
  val lookup : A.L.t generic_result -> string -> Prog.param -> A.L.t

  (** CONSTANTS(p): the parameters of [p] whose VAL pins down an
      integer constant. *)
  val constants_of : A.L.t generic_result -> string -> (Prog.param * int) list

  (** Evaluate a jump function under a caller's VAL map: ⊥ in ⇒ ⊥ out,
      any ⊤ in ⇒ ⊤ out (optimistic), the analysis's folding otherwise.
      Exposed for cloning. *)
  val eval_jf : stats -> A.L.t Prog.Param_map.t -> Symbolic.t -> A.L.t

  (** Solve.  [budget] (default: unlimited) bounds the worklist drain;
      on exhaustion the transitive callee closure of every pending
      caller is widened to ⊥ and the result is marked degraded — sound,
      less precise. *)
  val run :
    ?budget:Ipcp_support.Budget.t ->
    Callgraph.t ->
    site_jfs:Jump_function.site_jf list ->
    global_keys:string list ->
    A.L.t generic_result

  val pp_result : Prog.t -> A.L.t generic_result Fmt.t
end

(** {1 The constant-propagation instantiation}

    [Make (Const_analysis)] re-exported at the toplevel names every
    historical consumer uses. *)

val lookup : result -> string -> Prog.param -> Const_lattice.t
val constants_of : result -> string -> (Prog.param * int) list
val eval_jf : stats -> val_map -> Symbolic.t -> Const_lattice.t

val run :
  ?budget:Ipcp_support.Budget.t ->
  Callgraph.t ->
  site_jfs:Jump_function.site_jf list ->
  global_keys:string list ->
  result

val pp_result : Prog.t -> result Fmt.t
