(** Deterministic fault injection for recovery testing.

    The whole module is a no-op unless {!configure} installs a seeded
    configuration, so production paths pay one ref read per site.  When
    enabled, each injection decision is a pure function of the seed and
    the site identity string (never of scheduling, wall-clock time or
    call order), so the same sites fire no matter how many worker
    domains run the work — the engine's cross-[--jobs] determinism
    holds even under injected faults. *)

exception Injected of string

type config = {
  seed : int;
  raise_rate : float;  (** probability a [inject] site raises {!Injected} *)
  spin_rate : float;  (** probability a [inject] site busy-spins first *)
  spin_iters : int;  (** busy-loop iterations of a simulated slow worker *)
  starve_rate : float;  (** probability a budget is starved at creation *)
  starve_steps : int;  (** step allowance of a starved budget *)
  corrupt_rate : float;
      (** probability a {!corruption} site yields a corruption seed *)
  stall_rate : float;  (** probability a {!stall} site sleeps *)
  stall_ms : int;  (** sleep duration of a stalled site *)
}

let state : config option Atomic.t = Atomic.make None

let configure ?(raise_rate = 0.0) ?(spin_rate = 0.0) ?(spin_iters = 10_000)
    ?(starve_rate = 0.0) ?(starve_steps = 0) ?(corrupt_rate = 0.0)
    ?(stall_rate = 0.0) ?(stall_ms = 0) ~seed () =
  Atomic.set state
    (Some
       {
         seed;
         raise_rate;
         spin_rate;
         spin_iters;
         starve_rate;
         starve_steps;
         corrupt_rate;
         stall_rate;
         stall_ms;
       })

let clear () = Atomic.set state None

let active () = Atomic.get state <> None

let config () = Atomic.get state

let with_faults ?raise_rate ?spin_rate ?spin_iters ?starve_rate ?starve_steps
    ?corrupt_rate ?stall_rate ?stall_ms ~seed f =
  configure ?raise_rate ?spin_rate ?spin_iters ?starve_rate ?starve_steps
    ?corrupt_rate ?stall_rate ?stall_ms ~seed ();
  Fun.protect ~finally:clear f

(* FNV-1a over the site string, mixed with the seed through the splitmix64
   finalizer: cheap, stateless, and uniform enough to act as per-site
   probabilities. *)
let hash_site seed site =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    site;
  let z =
    ref (Int64.add !h (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L))
  in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  Int64.logxor !z (Int64.shift_right_logical !z 31)

(* Uniform draw in [0, 1) from the top 53 bits of the site hash. *)
let roll seed site =
  let bits = Int64.to_int (Int64.shift_right_logical (hash_site seed site) 11) in
  float_of_int bits /. 9007199254740992.0

let spin iters =
  let sink = ref 0 in
  for i = 1 to iters do
    sink := Sys.opaque_identity (!sink + i)
  done;
  ignore (Sys.opaque_identity !sink)

let inject site =
  match Atomic.get state with
  | None -> ()
  | Some c ->
    if c.spin_rate > 0.0 && roll c.seed (site ^ ":spin") < c.spin_rate then
      spin c.spin_iters;
    if c.raise_rate > 0.0 && roll c.seed (site ^ ":raise") < c.raise_rate then
      raise (Injected site)

let starvation site =
  match Atomic.get state with
  | None -> None
  | Some c ->
    if c.starve_rate > 0.0 && roll c.seed (site ^ ":starve") < c.starve_rate
    then Some c.starve_steps
    else None

let corruption site =
  match Atomic.get state with
  | None -> None
  | Some c ->
    if c.corrupt_rate > 0.0 && roll c.seed (site ^ ":corrupt") < c.corrupt_rate
    then
      Some
        (Int64.to_int
           (Int64.logand
              (hash_site c.seed (site ^ ":corrupt-seed"))
              0x3FFFFFFFL))
    else None

let stall site =
  match Atomic.get state with
  | None -> None
  | Some c ->
    if c.stall_rate > 0.0 && roll c.seed (site ^ ":stall") < c.stall_rate then
      Some c.stall_ms
    else None
