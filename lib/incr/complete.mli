(** "Complete propagation" (paper Table 3, column 3): iterate
    interprocedural constant propagation and dead-code elimination: run
    the analysis, fold the branches SCCP proved constant and sweep dead
    code; if anything was removed, reset all CONSTANTS sets to ⊤ and
    re-run the propagation on the smaller program, at most 10 rounds.
    The paper observed that a single round of dead-code elimination
    always sufficed; the test suite checks the same on ours.

    The rounds are one {!Incr} session: round 1 is {!Incr.start}, and
    each later round is {!Incr.update} to the program DCE left, in which
    a procedure DCE left alone is the same physical value, so the update
    grafts it without comparing bodies and copies what DCE did not
    reach.  DCE reads only the body and SCCP's [cond_consts]: a
    procedure whose body and SCCP result are physically the ones the
    previous round's DCE read and left alone runs neither again. *)

open Ipcp_frontend
open Ipcp_core

type outcome = {
  final : Driver.t;  (** analysis of the final, DCE-stable program *)
  substituted : int;  (** substitution count on the final program *)
  dce_rounds : int;  (** rounds that actually removed code *)
  degraded : Ipcp_support.Budget.reason list;
      (** budget exhaustions hit along the way; empty on a precise run *)
}

(** Complete propagation.  [budget] (default: built from the
    configuration) bounds the number of re-analysis rounds; on
    exhaustion the current round's (sound) result is kept and the
    outcome is marked degraded. *)
val run :
  ?budget:Ipcp_support.Budget.t -> ?config:Config.t -> Prog.t -> outcome

(** The rounds continued from an analyzed session, as round 1: what
    {!run} gives on the session's program and configuration. *)
val continue : ?budget:Ipcp_support.Budget.t -> Incr.session -> outcome
