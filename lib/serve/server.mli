(** The long-lived request-processing layer over the analyzer pipeline.

    One select loop reads newline-delimited JSON job requests
    ({!Request}) from its connections — the stdio connection of {!run},
    or the socket clients of {!run_listen} — executes them on a pool of
    worker domains, and writes one response frame per request back on
    the connection that submitted it.  Durability properties:

    {ul
    {- {b conservation}: every submitted request line gets exactly one
       terminal response — [ok], [error], [shed], [rejected],
       [quarantined] or [invalid] — at every worker count;}
    {- {b backpressure}: admission goes through a bounded {!Bqueue}.
       While it is full, the stdio connection stops reading (its lines
       already framed wait for room, and the pipe backs up the writer),
       so a piped batch is never shed; a socket connection's overflow
       sheds loudly as typed [rejected]/[shed] frames, never blocks and
       never drops silently;}
    {- {b supervision}: a crashing job (including fault-injected crashes
       at site [serve.worker:<seq>:<k>]) fails only its own request; the
       worker restarts on a capped exponential backoff with
       deterministic seeded jitter;}
    {- {b quarantine}: an input that crashes workers [breaker_threshold]
       times consecutively — or whose served solution fails online
       certification even once — is circuit-broken: later requests for
       it answer [quarantined] without executing, it surfaces in the
       health snapshot, and with [breaker_reset_after > 0] the breaker
       goes half-open after that many denials, letting one probe request
       through (success closes the breaker, failure re-opens it);}
    {- {b online certification}: a seeded-deterministic
       [certify_sample] fraction of analyze/analyze-delta responses is
       re-checked by {!Ipcp_certify.Certify} before emission; a failing
       response is never sent as [ok] but becomes a typed
       [certification_failed] frame ({!Err}) and trips the breaker.
       When the fault site [serve.solution:<seq>] is armed, the solved
       result is deliberately corrupted {e before} rendering, which is
       how the fuzz harness proves corrupted solutions cannot escape;}
    {- {b graceful drain}: SIGTERM/SIGINT (or end of input) finishes
       in-flight and queued work, answers [rejected] to lines that were
       read but not yet admitted, flushes, and returns 0;}
    {- {b byte-identity}: responses carry {!Jobs} renderings — the same
       strings a direct CLI run prints.  Analyze and certify requests
       run [Driver.prepare] + [solve] afresh, and the incremental path
       does not change a byte;}
    {- {b incrementality}: [analyze-delta] requests serve from a
       per-session-name {!Ipcp_incr.Incr} session held in memory,
       updated from the session's previous version: what the edit left
       unchanged is copied, and the previous fixpoint is kept when no
       jump function changed.  A session lost to a restart starts
       again, which yields the same frame.}} *)

type config = {
  workers : int;  (** worker domains (at least 1) *)
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  breaker_threshold : int;
      (** consecutive crashes before an input is quarantined; 0 disables *)
  breaker_reset_after : int;
      (** half-open policy: after this many [quarantined] denials the
          next request for the input runs as a probe — success closes
          the breaker, failure re-opens it; 0 quarantines forever *)
  certify_sample : float;
      (** online-certify this fraction of analyze/analyze-delta
          responses before emission, chosen deterministically per
          (seed, request sequence number); 0 disables sampling, 1.0
          certifies everything *)
  backoff_base_ms : int;  (** first restart delay *)
  backoff_cap_ms : int;  (** exponential backoff ceiling *)
  seed : int;
      (** seed of the backoff jitter (deterministic per (seed, slot,
          restart)) and of the certification sample (per (seed, seq)) *)
  health_out : string option;
      (** write a final [ipcp.health/1] snapshot to this path after the
          drain barrier, when every counter is settled — unlike
          in-stream [health] answers, which race the workers *)
  read_timeout_ms : int;
      (** socket connections only: refuse a connection ([E-REQ-TIMEOUT])
          that keeps a partial request line buffered for longer than
          this — the slow-loris guard; 0 disables *)
  max_line : int;
      (** refuse request lines longer than this many bytes with an
          [invalid]/[E-REQ-OVERSIZE] frame; the connection reads no
          further, which on stdio ends the input.  [<= 0] leaves lines
          unchecked *)
}

val default_config : config

(** The certification sampling predicate: whether the response to
    request sequence number [seq] is online-certified at [rate] under
    [seed].  A pure function — never of worker count, scheduling, or
    wall clock — so the sampled set is reproducible; exposed for the
    determinism harnesses. *)
val certify_sampled : seed:int -> rate:float -> seq:int -> bool

(** The per-response corruption site consulted after solving and before
    rendering (["serve.solution:<seq>"]): when {!Ipcp_support.Fault}
    arms it, the served solution really is corrupted, and only online
    certification keeps it from reaching the client as [ok]. *)
val solution_fault_site : int -> string

(** {2 Shared with the shard router}

    The canonical terminal frames the serving tier answers without
    executing anything — so the router's refusals are byte-identical to
    a single-process server's — and the supervision helpers. *)

val quarantined_response : Request.t -> Request.response

val invalid_response : Request.parse_error -> Request.response

(** The [invalid]/[E-REQ-OVERSIZE] frame of a request line that grew to
    [bytes] buffered bytes past a cap of [max_line]. *)
val oversize_response : max_line:int -> int -> Request.response

(** The [rejected]/[E-LOAD-DRAIN] frame of a line read but never
    admitted before a drain, addressed by the line's id; [None] for a
    blank line, which is no request. *)
val drained_line : string -> Request.response option

(** Restart delay in milliseconds of a slot's [restart]-th consecutive
    crash: exponential from [base], capped at [cap], plus jitter — a
    pure function of ([seed], [slot], [restart]). *)
val backoff_ms :
  base:int -> cap:int -> seed:int -> slot:int -> restart:int -> int

(** Run [f] with SIGTERM/SIGINT handlers that only request a graceful
    stop ({!stopping}); the previous handlers are restored on return. *)
val with_signals : (unit -> 'a) -> 'a

(** A termination signal arrived since {!with_signals} began. *)
val stopping : unit -> bool

(** {2 Entry points} *)

(** Serve the stdio connection: requests are read from [input] (stdin, a
    FIFO, a file) and frames written to [output] with blocking writes;
    neither fd is switched to non-blocking mode.  The connection has no
    read deadline, and a full queue pauses its reads instead of shedding.
    Runs until end of input (or an oversize line, which ends it) or a
    termination signal, then drains.  Returns the process exit code: 0
    after a clean drain, {!Jobs.exit_input} when the response stream
    died (e.g. a broken pipe). *)
val run :
  ?config:config -> input:Unix.file_descr -> output:out_channel -> unit -> int

(** Serve over a listening socket ({!Transport.addr}) with the same loop,
    admission and worker pool as {!run}, and no stdio connection: it
    accepts concurrent clients and writes each response back on the
    connection that submitted its request.  Additional durability
    properties:

    {ul
    {- {b per-connection conservation}: a connection closes only after
       every line it submitted has its terminal frame (its share of the
       conservation ledger reaches zero);}
    {- {b crash isolation from clients}: a client that disconnects
       before its response is written ([EPIPE]/[ECONNRESET]) costs
       nothing but that response — the loss is counted
       ([serve.client_gone]) and logged to stderr as a typed
       [E-LOAD-GONE] accounting frame, and the server lives on;}
    {- {b slow-loris defense}: a request line longer than
       [config.max_line] is refused with [E-REQ-OVERSIZE], a connection
       holding a partial line longer than [config.read_timeout_ms] is
       refused with [E-REQ-TIMEOUT]; both refusals are terminal frames
       on the wire before the close, so conservation holds for them
       too;}
    {- {b graceful drain}: SIGTERM/SIGINT stops accepting, answers typed
       drain rejections for lines already in flight, finishes queued
       work, closes every connection, and removes a Unix socket file.}}

    Returns the exit code (0; client failures never fail the server).
    The test-only [IPCP_SERVE_KILL_INPUT] environment hook (also honored
    by {!run}) SIGKILLs the whole process when a matching input key
    executes — how the shard-failover harnesses fell one shard
    deterministically. *)
val run_listen : ?config:config -> addr:Transport.addr -> unit -> int
