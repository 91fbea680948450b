(** Deterministic fault injection for recovery testing.

    The whole module is a no-op unless {!configure} installs a seeded
    configuration, so production paths pay one atomic read per site.
    When enabled, each injection decision is a pure function of the seed
    and the site identity string (never of scheduling, wall-clock time
    or call order), so the same sites fire no matter how many worker
    domains run the work. *)

exception Injected of string

type config = {
  seed : int;
  raise_rate : float;  (** probability a [inject] site raises {!Injected} *)
  corrupt_rate : float;
      (** probability a {!corruption} site yields a corruption seed *)
}

let state : config option Atomic.t = Atomic.make None

let configure ?(raise_rate = 0.0) ?(corrupt_rate = 0.0) ~seed () =
  Atomic.set state (Some { seed; raise_rate; corrupt_rate })

let clear () = Atomic.set state None

let active () = Atomic.get state <> None

let with_faults ?raise_rate ?corrupt_rate ~seed f =
  configure ?raise_rate ?corrupt_rate ~seed ();
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

let inject site =
  match Atomic.get state with
  | None -> ()
  | Some c ->
    if c.raise_rate > 0.0 && roll c.seed (site ^ ":raise") < c.raise_rate then
      raise (Injected site)

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
