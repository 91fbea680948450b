(** One supervised shard: an [ipcp serve] worker process in stdio mode,
    whose stdin and stdout are one end of a socketpair the router holds
    the other end of.

    The handle owns the process and the router's end, nothing else —
    inflight bookkeeping, routing, and failover live in {!Router}.  A
    shard's stderr is the router's stderr, so its diagnostics surface
    and the router's stdout stays a pure response-frame stream.  Both
    ends are close-on-exec, so a shard holds no other shard's end: when
    the router dies, for any reason, every shard reads end of input,
    drains and exits. *)

type t

val slot : t -> int
val pid : t -> int

(** The router's end of the socketpair, while the shard is up. *)
val fd : t -> Unix.file_descr option

(** Spawn the worker process ([binary serve args]) on a fresh
    socketpair.  Raises [Unix.Unix_error] when the socketpair or the
    process cannot be created. *)
val start : binary:string -> slot:int -> args:string list -> t

(** Queue one request line (newline appended) for the shard.  Writes
    never block: what the socket does not take at once is buffered
    ({!Transport.Outbuf}) until {!flush}.  [false] means the write
    failed — the shard is dead or dying and the caller should run its
    death protocol. *)
val send : t -> string -> bool

(** Buffered request bytes wait for the fd to turn writable. *)
val pending : t -> bool

(** Resume the buffered bytes (call when the fd is writable); [false]
    as for {!send}. *)
val flush : t -> bool

(** Close the router's end and reap the child (it is already dead when
    this is called on the EOF path, so the wait does not block
    meaningfully). *)
val abandon : t -> unit

(** Graceful stop: close the router's end (the shard reads end of
    input), send SIGTERM, and reap.  Escalates to SIGKILL if the shard
    has not exited within [patience_ms] (default ~5s) — the router's
    heartbeat ejection passes a short fuse, since a shard being ejected
    is by definition not responding and will likely need the
    escalation. *)
val terminate : ?patience_ms:int -> t -> unit
