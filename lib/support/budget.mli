(** Composable resource budgets for the analysis worklists.

    One budget bounds one pass (a solver drain, an SCCP run, a
    complete-propagation iteration) by step count and/or wall-clock
    deadline.  Exhaustion is sticky; the pass that owns the budget
    responds by widening its remaining work to ⊥ — always sound on the
    IPCP lattice — and reporting the {!reason} in its [degraded] field.

    Budgets are per-pass and single-domain by design: passes running in
    engine worker domains derive a fresh budget each from the (immutable)
    configuration, so no budget state is shared across domains and
    parallel results stay byte-identical at every [--jobs] value.  A
    budget's limits are exactly the ones its creator passes: no
    process-global state, fault configuration included, changes them. *)

type reason =
  | Steps of int  (** the step limit that was exhausted *)
  | Deadline of int  (** the deadline in milliseconds that passed *)

type t

(** [create ()] is an unlimited budget; [?max_steps] and [?deadline_ms]
    add the respective limits.  [?clock] (nanoseconds, monotonic)
    exists for tests. *)
val create :
  ?clock:(unit -> int64) -> ?max_steps:int -> ?deadline_ms:int -> unit -> t

(** Whether any limit applies. *)
val is_limited : t -> bool

(** Steps consumed so far. *)
val steps_used : t -> int

(** [tick t] consumes one step.  [true] = keep going; [false] = the
    budget is exhausted (sticky: stays [false] forever). *)
val tick : t -> bool

(** Current state without consuming a step. *)
val ok : t -> bool

(** Why the budget ran out, once it has. *)
val exhausted : t -> reason option

val pp_reason : reason Fmt.t
val reason_to_string : reason -> string
val equal_reason : reason -> reason -> bool
