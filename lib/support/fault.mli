(** Deterministic fault injection for recovery testing.

    Disabled (the default), every entry point is a no-op costing one
    atomic read — production behaviour is untouched.  Enabled via
    {!configure}, each decision is a pure function of (seed, site
    string): identical across runs, scheduling orders and worker-domain
    counts.

    A fault fires only at a site a harness aims at: [ipcp serve
    --fault-rate] arms the per-request worker sites
    (["serve.worker:<seq>:<k>"]) through {!inject}, and
    [IPCP_FAULT_CORRUPT], [fuzz] and the tests arm the solution
    corruption sites through {!corruption}. *)

(** Raised by {!inject} when the site's raise draw fires. *)
exception Injected of string

(** Install a fault configuration (process-wide, atomically). *)
val configure :
  ?raise_rate:float -> ?corrupt_rate:float -> seed:int -> unit -> unit

(** Remove the configuration; all sites become no-ops again. *)
val clear : unit -> unit

val active : unit -> bool

(** [with_faults ~seed ... f] runs [f] with faults configured, clearing
    them afterwards even if [f] raises. *)
val with_faults :
  ?raise_rate:float -> ?corrupt_rate:float -> seed:int -> (unit -> 'a) -> 'a

(** Fire the fault point named [site]: possibly raise {!Injected}. *)
val inject : string -> unit

(** [corruption site] is [Some seed] when the site's corruption draw
    fires: the caller should deliberately corrupt the artifact it is
    about to publish (or, for the certification harness, the solution it
    is about to certify) using the returned deterministic seed.  [None]
    when disabled or the draw does not fire.  Like {!inject}, the
    decision is a pure function of (seed, site). *)
val corruption : string -> int option
