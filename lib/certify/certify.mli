(** Independent certification of a solved analysis (self-certifying
    analysis, in the style of certifying algorithms): given the
    {!Ipcp_core.Driver} artifacts and the solution they carry, re-check
    from scratch that the solution is a {e sound fixpoint} rather than
    trusting the solver that produced it.

    The obligations discharged, each with its own [E-CERT-*] code:

    - {b E-CERT-EDGE}: for every call edge and every callee parameter,
      the published binding is ⊑ the jump function of that edge evaluated
      (by an independent structural evaluator) under the caller's
      published bindings — the post-fixpoint property of the VAL system.
    - {b E-CERT-ENTRY}: the main program's bindings are ⊑ the load-time
      seeds (⊥ for formals, {!Ipcp_core.Solver.global_seed} for
      globals).
    - {b E-CERT-INTRA}: the intraprocedural baseline claims no
      interprocedural constants at all (every binding ⊥).
    - {b E-CERT-COVERAGE}: every call site in an independently
      re-computed reachable region has a jump function, and its shape
      matches the callee (no silently dropped edges).
    - {b E-CERT-MOD}: side effects re-derived directly from procedure
      bodies (plus their own transitive closure) are contained in the
      published MOD summaries, and return jump functions only bind
      formals/globals those summaries admit.
    - {b E-CERT-SCCP}: every per-procedure SCCP result is consistent
      with a one-step transfer re-evaluation (see {!Sccp_check}).
    - {b E-CERT-EXEC}: the reference interpreter, instrumented with an
      observation hook, witnesses every constant the substitution pass
      would emit: claimed constant uses/branches match every actual
      evaluation, CONSTANTS entry facts match entry snapshots, and the
      substituted program prints the same output as the original.

    A report with no violations certifies the solution: constants it
    publishes agree with what the program actually computes.  Both
    analyses are checked by the same code: they differ only in main's
    entry seeds, which the entry check reads from the solution's
    configuration. *)

open Ipcp_frontend
open Ipcp_core

(** One failed obligation, located in the analyzed program. *)
type violation = {
  v_code : string;  (** stable [E-CERT-*] code *)
  v_proc : string;  (** procedure the obligation belongs to *)
  v_loc : Loc.t;
  v_msg : string;
}

(** Whether the interpreter witness ran the program to completion.
    When it ran out of fuel or failed at runtime, the execution
    obligations are vacuous, not violated, and [Not_witnessed] says why
    (["out of fuel after F steps"] or ["runtime error: ..."]). *)
type witness = Witnessed | Not_witnessed of string

type report = {
  violations : violation list;  (** in discovery order *)
  obligations : int;  (** obligations discharged (attempted) *)
  witness : witness;
}

val ok : report -> bool

(** Violations as located diagnostics (message prefixed with the
    procedure name). *)
val to_diagnostics : report -> Ipcp_support.Diagnostics.t

(** ["certified (N obligations, execution witnessed)"] — or
    ["execution not witnessed: REASON"] in place of the last part — or
    the violation list. *)
val pp_report : report Fmt.t

(** The configuration sweep of {!check_program}: the six Table 2
    configurations plus the polynomial ±MOD presets and the
    intraprocedural baseline. *)
val default_configs : (string * Config.t) list

(** Certify a solved analysis.  [fuel] and [input] are forwarded to the
    interpreter witness.  When {!Ipcp_support.Fault}'s corruption site
    ["certify.solution"] fires, the solution is deliberately corrupted
    (via {!corrupt}) before checking — the fault-injection path that
    proves the certifier catches bad solutions end-to-end.
    [~inject_fault:false] opts out of that hook: the serve layer's online
    checks verify solutions that were (possibly) corrupted upstream at
    their own site, and must not corrupt their input a second time.
    Under a telemetry reporter the check is a [certify] span with one
    child per obligation family it runs: [edges], [entry] and [coverage]
    (or [intra] for the baseline), [mod], [sccp] and [exec]. *)
val check :
  ?inject_fault:bool -> ?fuel:int -> ?input:int list -> Driver.t -> report

(** [corrupt ~seed t] returns a copy of [t] whose solution has exactly
    one binding deterministically falsified (a ⊥ or a copy raised to a
    sentinel constant, or a constant shifted), picking a binding whose
    corruption a certifier must detect on a non-degraded solution:
    non-⊤ bindings of procedures reachable from the main program.
    [None] when the solution has no such binding.  [t] itself is not
    modified. *)
val corrupt : seed:int -> Driver.t -> Driver.t option

(** Certify one program under a sweep of configurations over shared
    {!Driver.prepare} artifacts; returns one labeled report per
    configuration. *)
val check_program :
  ?fuel:int ->
  ?input:int list ->
  ?configs:(string * Config.t) list ->
  Prog.t ->
  (string * report) list
