(** Composable resource budgets for the analysis worklists.

    A budget bounds a single pass (one solver drain, one SCCP run, one
    complete-propagation iteration) by step count and/or wall-clock
    deadline.  Exhaustion is sticky: once {!tick} returns [false] it
    returns [false] forever and {!exhausted} names the reason, which the
    pass reports in its [degraded] result field after widening its
    remaining work to ⊥ (always sound on the IPCP lattice — merely less
    precise).

    Budgets are deliberately per-pass and single-domain: passes that run
    inside engine worker domains (per-procedure SCCP under
    [Substitute.apply ~jobs]) each get a fresh budget derived from the
    configuration, so no mutable budget state is ever shared across
    domains and results stay byte-identical for every [--jobs] value. *)

type reason =
  | Steps of int  (** the step limit that was exhausted *)
  | Deadline of int  (** the deadline in milliseconds that passed *)

type t = {
  max_steps : int option;
  deadline_ms : int option;
  deadline_ns : int64 option;
  clock : unit -> int64;
  mutable steps : int;
  mutable exhausted : reason option;
}

let default_clock () = Monotonic_clock.now ()

let create ?(clock = default_clock) ?max_steps ?deadline_ms () =
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add (clock ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
      deadline_ms
  in
  { max_steps; deadline_ms; deadline_ns; clock; steps = 0; exhausted = None }

let is_limited t = t.max_steps <> None || t.deadline_ns <> None
let steps_used t = t.steps
let exhausted t = t.exhausted

let tick t =
  match t.exhausted with
  | Some _ -> false
  | None ->
    t.steps <- t.steps + 1;
    (match t.max_steps with
    | Some limit when t.steps > limit -> t.exhausted <- Some (Steps limit)
    | _ -> ());
    (match (t.exhausted, t.deadline_ns) with
    | None, Some d when Int64.compare (t.clock ()) d > 0 ->
      t.exhausted <-
        Some (Deadline (Option.value t.deadline_ms ~default:0))
    | _ -> ());
    t.exhausted = None

let ok t = t.exhausted = None

let pp_reason ppf = function
  | Steps n -> Fmt.pf ppf "step budget exhausted after %d steps" n
  | Deadline ms -> Fmt.pf ppf "deadline of %dms exceeded" ms

let reason_to_string r = Fmt.str "%a" pp_reason r

let equal_reason (a : reason) (b : reason) = a = b
