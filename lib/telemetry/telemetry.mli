(** Pipeline instrumentation: hierarchical phase timers, named counters and
    value distributions, with human and machine-readable exporters.

    The analyzer layers call {!span}, {!add}, {!incr} and {!observe}
    unconditionally; all four are no-ops (one ref read) until a collector is
    installed with {!with_reporter}.  This keeps the instrumented pipeline
    byte-identical — in output and in allocation behaviour — when profiling
    is off, while [--profile] runs collect:

    - {b spans}: nested monotonic-clock timers forming a tree, e.g.
      [analyze > stage2:forward_jfs > build_ir:<proc>]; repeated spans with
      the same name under the same parent aggregate (total time, call count,
      per-call duration distribution);
    - {b counters}: monotonic named totals (worklist pops, meets,
      jump-function evaluations per kind, …);
    - {b distributions}: streams of observed values (jump-function sizes
      per call site, worklist depths, …).

    Exporters: {!pp_summary} renders the human [--profile] table;
    {!to_json} produces a stable schema-versioned document (see
    {!schema_version}) suitable for diffing across versions, which
    {!write_json} writes for [--profile-json]. *)

type t
(** A collector ("sink"): owns the span tree, counters and distributions. *)

(** [create ()] makes an empty collector.  [clock] (nanoseconds, monotonic)
    is injectable for deterministic tests; it defaults to the process
    monotonic clock. *)
val create : ?clock:(unit -> int) -> unit -> t

(** Install [t] as the current sink for the duration of the callback
    (exception-safe; restores the previous sink, so reporters nest).

    The sink is {b domain-local}: installing a reporter in one domain does
    not make it visible to domains spawned afterwards — a fresh domain
    always starts with no sink.  Worker domains install their own
    collectors and the pool folds them into the parent's with {!merge}
    after the workers have joined. *)
val with_reporter : t -> (unit -> 'a) -> 'a

(** Is any sink currently installed in this domain? *)
val enabled : unit -> bool

(** The sink installed in this domain, if any — the merge target a pool
    uses when folding worker collectors back into its caller. *)
val current : unit -> t option

(* ---- recording (no-ops without an installed sink) ---- *)

(** [span name f] times [f] as a child of the innermost open span.
    Exception-safe: the span closes even if [f] raises. *)
val span : string -> (unit -> 'a) -> 'a

(** Add to a named counter (created at zero on first use). *)
val add : string -> int -> unit

val incr : string -> unit

(** Record one value into a named distribution. *)
val observe : string -> int -> unit

(** Set a named gauge — a point-in-time level (queue depth, live workers,
    quarantined inputs), not a running total: each call replaces the
    previous reading.  {!merge} keeps the merged-in reading rather than
    summing. *)
val set_gauge : string -> int -> unit

(** [merge ?under ~into src] folds everything recorded in [src] into
    [into]: span subtrees with matching names aggregate (time, call counts,
    duration samples), counters add, distributions concatenate.  With
    [?under:name], [src]'s span tree is grafted beneath a top-level node
    [name] (the pool uses [pool:domain-<i>]), keeping per-domain timings
    distinguishable.  Call only after the domain that recorded [src] has
    been joined — the merge itself takes no locks. *)
val merge : ?under:string -> into:t -> t -> unit

(* ---- inspection (used by tests and exporters) ---- *)

type span_snapshot = {
  sp_name : string;
  sp_ns : int;  (** total nanoseconds across all calls *)
  sp_calls : int;
  sp_children : span_snapshot list;  (** in first-entered order *)
}

(** Top-level spans recorded so far, in first-entered order. *)
val spans : t -> span_snapshot list

(** Value of a counter, if it was ever touched. *)
val counter : t -> string -> int option

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** Observed values of a distribution, in recording order. *)
val distribution : t -> string -> int list

(** Last reading of a gauge, if it was ever set. *)
val gauge : t -> string -> int option

(** All gauges, sorted by name. *)
val gauges : t -> (string * int) list

(* ---- exporters ---- *)

(** Version tag embedded in every JSON document ([ipcp.profile/1]). *)
val schema_version : string

(** The human [--profile] report: span tree with times and per-span
    duration statistics, then counters, then distribution summaries. *)
val pp_summary : Format.formatter -> t -> unit

val to_json : t -> Json.t

(** Write an indented JSON document to [path] (truncates). *)
val write_json : string -> t -> unit

(** Version tag of the health document ([ipcp.health/1]) served by the
    long-lived request layer. *)
val health_schema_version : string

(** [health_snapshot ~gauges ~counters] builds the schema-versioned health
    document from flat readings (both lists are sorted by name, so the
    rendered document is deterministic whatever order the caller collected
    them in). *)
val health_snapshot :
  gauges:(string * int) list -> counters:(string * int) list -> Json.t
