(** The functorized analysis interface (ROADMAP item 4).

    The paper's framework — jump functions built per call site, an
    interprocedural worklist over the call graph, SCCP as the
    intraprocedural client — is analysis-agnostic: nothing in the
    propagation machinery depends on the lattice being the three-level
    constant lattice of Figure 1.  This signature captures exactly what
    the machinery needs from an analysis, so {!Ipcp_core.Solver},
    {!Ipcp_core.Driver} and the independent certifier can be functors
    over it.

    {!Const_analysis} (the paper's constant propagation) is the first
    instantiation; {!Copy_analysis} (copy propagation per Sreekala &
    Paleri's subsumption result) the second.  To add a third analysis:
    implement this signature, add a constructor to
    {!Ipcp_core.Config.analysis}, and register the instantiations in the
    dispatch points (`Jobs`, `Tables`, the CLI) — the solver, driver,
    certifier and incremental layers are generated by their functors. *)

(** A bounded meet-semilattice of analysis facts about one
    procedure-entry value.

    Laws the property suites pin down (see [test_lattice.ml] and
    [test_copy_lattice.ml]): [meet] is commutative, associative and
    idempotent with [top] as identity and [bottom] absorbing; [le] is
    the partial order induced by [meet] ([le a b] iff
    [equal (meet a b) a]); [height] strictly decreases along strict
    descents, bounding every chain — which is what terminates the
    worklist iteration. *)
module type LATTICE = sig
  type t

  val top : t
  (** No information yet — the optimistic initial value. *)

  val bottom : t
  (** Known useless — the conservative final value. *)

  val equal : t -> t -> bool
  val meet : t -> t -> t
  val le : t -> t -> bool

  val height : t -> int
  (** How many times the element can still be lowered. *)

  val const_value : t -> int option
  (** The integer constant this fact pins down, if any.  This is the
      bridge to SCCP seeding, CONSTANTS sets and the substitution pass:
      facts without a constant reading (e.g. a copy fact) contribute
      [None] and simply do not seed those consumers. *)

  val pp : t Fmt.t
end

(** One analysis: a lattice plus the hooks the solver, driver and
    certifier need.  Everything else — worklists, staging, budgets,
    telemetry, incremental re-solving — is shared machinery. *)
module type S = sig
  module L : LATTICE

  val eval_jf : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
  (** The forward transfer function: evaluate a jump function under a
      caller's lattice environment.  Must be monotone in [env] and
      return [L.bottom] for jump functions with no support. *)

  val certify_eval : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
  (** The certifier's second opinion on {!eval_jf}: a structurally
      independent evaluator (different traversal, different absorption
      code path) that must agree with {!eval_jf} on every input.  A bug
      in either shows up as an [E-CERT-EDGE] disagreement. *)

  val global_seed : data:int option -> key:string -> L.t
  (** The fact holding for global [key] on entry to the main program:
      [data] is its load-time DATA value, if initialized. *)

  val corrupt : shift:int -> L.t -> L.t
  (** Deliberately falsify a non-[top] fact (certifier self-test): the
      result must {b not} be [le] the argument.  [shift] adds seeded
      variety.  Never called on [top]. *)
end
