(** The multi-process shard router ([ipcp route --shards N]).

    Reads the same newline-delimited request stream as [ipcp serve] on
    stdin and writes the same response-frame stream on stdout, but
    executes nothing itself: it spawns and supervises [N] [ipcp serve
    --listen] worker {e processes} ({!Shard}), consistent-hashes each
    request to a shard, and relays each shard's frames back with the
    client's request ids restored.  On healthy inputs the stream is
    byte-identical to a single-process server's (same renderers, same
    fixed key order), which the differential harnesses pin.  Stdin lines
    are capped at serve's default [max_line], with serve's
    [E-REQ-OVERSIZE] refusal ending the input; shards run uncapped, so
    the id rewrite never pushes an admitted line past a shard's cap.

    Durability properties on top of the single server's:

    {ul
    {- {b conservation across crashes}: every submitted line gets
       exactly one terminal frame even when shards are SIGKILLed
       mid-request.  A dead shard's in-flight requests are re-routed
       {e exactly once} to the next live shard on the ring; a request
       whose re-routed shard also dies answers a terminal [error] frame
       typed [E-WORKER-LOST] instead of being retried forever;}
    {- {b crash isolation}: a shard crash (segfault, OOM-kill, poison
       input) costs only that shard's in-flight work — the router and
       the other shards keep serving, and the shard respawns on the
       same capped seeded backoff the in-process worker supervisor
       uses;}
    {- {b router-scope quarantine}: the per-input circuit breaker is
       lifted to router scope — an input whose requests kill
       [breaker_threshold] shard processes is quarantined at admission
       (the same [quarantined] frame a single server emits), so a
       poison input cannot crash-loop the whole fleet;}
    {- {b affinity}: requests hash by {e content} ({!route_key} —
       program text digest, or session name for analyze-delta), so every
       request for one program lands on one shard, and a session's
       deltas always reach the shard holding that session (a respawned
       shard starts the session again, with the same frame);}
    {- {b merged health}: a [health] request fans out to every live
       shard and answers one [ipcp.health/1] snapshot with the shards'
       gauges and counters summed plus the router's own ([router.*]);}
    {- {b gray-failure tolerance}: a shard that is alive but {e silent}
       (wedged, stopped, pathologically slow) is detected and handled,
       not just a shard that died.  In-band heartbeats ([ping] requests
       answered off-queue) track per-shard liveness; a shard missing
       [heartbeat_misses] consecutive beats is {e ejected}
       (SIGTERM-then-SIGKILL, buffered frames salvaged, inflight
       re-routed, seeded-backoff respawn).  Independently, a per-request
       deadline ([route_deadline_ms]) hedges a slow forward to the next
       ring slot exactly once, and the response ledger discards the slow
       shard's late answer ([router.late_dropped]) so no request is ever
       answered twice.}}

    The byte-identity caveat: certification {e sampling} is a function
    of each server's own request sequence numbers, which sharding
    permutes — run identity comparisons with [--certify-sample 0] (the
    default).  Certification itself is unaffected. *)

(** The consistent-hash ring: [vnodes] virtual points per shard slot on
    the MD5 circle.  Pure and deterministic — exposed for the unit
    tests, and so failover order can be stated: a key's shard is the
    first point clockwise of its hash, its failover shard the next
    {e distinct} slot clockwise. *)
module Ring : sig
  type t

  val make : slots:int -> t

  (** The owning slot of a routing key. *)
  val lookup : t -> string -> int

  (** Every slot, in ring order starting at the key's owner — the
      failover sequence.  Deterministic, contains each slot exactly
      once. *)
  val order_from : t -> string -> int list
end

(** The routing key a request hashes by: [prog:<md5>] of the target's
    program text (suite source, or file contents) for analyze/certify,
    [session:<analysis>:<name>] for analyze-delta (session affinity),
    [op:tables] for tables.  Content-addressed, so renames and
    duplicate registrations of the same program still co-locate. *)
val route_key : Request.t -> string

type config = {
  shards : int;  (** worker processes (at least 1) *)
  binary : string;  (** the [ipcp] executable to spawn shards from *)
  shard_args : string list;
      (** extra [serve] flags passed to every shard verbatim *)
  queue : int;
      (** each shard's [--queue]; stdin is not read while any live shard
          holds this many unanswered requests, so piped input backs up
          instead of being shed *)
  runtime_dir : string option;
      (** where shard sockets live; a fresh temp dir (removed on exit)
          when [None] *)
  breaker_threshold : int;
      (** router-scope breaker: quarantine an input after this many
          shard-process crashes while serving it; 0 disables *)
  backoff_base_ms : int;
  backoff_cap_ms : int;
  seed : int;  (** seed of the respawn-backoff jitter *)
  connect_timeout_ms : int;  (** per-spawn connect deadline *)
  health_out : string option;
      (** write a final merged snapshot here after the drain barrier *)
  pids_out : string option;
      (** rewrite this file with ["slot pid"] lines on every (re)spawn —
          how the crash harnesses find a victim to SIGKILL *)
  route_deadline_ms : int;
      (** per-request deadline: a forward unanswered within this window
          is hedged to the next ring slot, spending the request's one
          failover; the late answer is discarded by the ledger.  0
          disables (the default) *)
  heartbeat_ms : int;
      (** interval between in-band pings per live shard; any frame from
          the shard counts as the answer.  0 disables *)
  heartbeat_misses : int;
      (** consecutive unanswered pings before ejection *)
}

val default_config : config

(** Run the router to completion (stdin EOF or SIGTERM/SIGINT, then a
    full drain: every pending request resolved, shards terminated, the
    runtime dir cleaned up).  Returns the exit code: 0, or
    {!Jobs.exit_input} when stdout died mid-stream. *)
val run : config -> int
