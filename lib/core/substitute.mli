(** Textual constant substitution — the paper's effectiveness metric
    (Metzger–Stroud): the number of scalar-variable uses replaced by their
    compile-time constant values, justified by SCCP seeded with the
    discovered CONSTANTS entry facts.

    Definition contexts (assignment targets, [read] targets, do-variables)
    and by-reference actuals whose storage the callee may modify are never
    substituted. *)

open Ipcp_frontend

type stats = {
  total : int;
  by_proc : (string * int) list;
  sccp_degraded : string list;
      (** procedures whose SCCP pass exhausted its budget, in program
          order; they contribute no substitutions *)
}

(** Substitute into one procedure given its seeded SCCP result.  Only
    MOD summaries and the SCCP fact tables are consulted. *)
val apply_proc :
  Driver.t -> Prog.proc -> Ipcp_analysis.Sccp.result -> Prog.proc * int

(** Substitute over the whole program.  [jobs > 1] distributes the
    independent per-procedure passes across worker domains; output is
    identical to the sequential run. *)
val apply : ?jobs:int -> Driver.t -> Prog.t * stats

(** [count config prog]: analyze then substitute, returning the count —
    one cell of Tables 2/3. *)
val count : Config.t -> Prog.t -> int

(** [count_staged artifacts config]: like {!count} but solving over
    shared {!Driver.prepare} artifacts, skipping the config-independent
    stages. *)
val count_staged : Driver.artifacts -> Config.t -> int
