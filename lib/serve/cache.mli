(** Crash-safe on-disk store of incremental-session payloads: the
    per-procedure blobs and session manifests {!Ipcp_incr.Incr.export}
    produces, which let a restarted server (or a respawned shard) resume
    [analyze-delta] without re-solving.

    One entry per key, written with temp-file + atomic-rename so a crash
    mid-write never leaves a half-entry under the final name.  Each
    entry opens with a checksum header

    {v ipcp-artifact-cache/1 <md5-of-payload> <payload-length> v}

    validated {b before} the payload reaches any deserializer — a
    corrupt or truncated entry is deleted and reported as a miss (the
    caller silently recomputes), never trusted.  The build fingerprint
    is part of the key, so entries from another binary are simply never
    found.

    The cache is bounded when [max_entries] is given: after each store,
    the oldest entries by mtime (ties broken by name) are evicted down
    to the cap, and {!stats} counts the evictions.  A hit touches its
    entry's mtime (best-effort), so the order is least-recently-{e used}
    — a hot entry is not evicted merely for being stored first.

    Safe for concurrent use from worker domains {b and} from several
    processes sharing the directory (the shard fleet does): lookups and
    stores are independent file operations, a racing double-store
    resolves to whichever atomic rename lands last (both writes carry
    identical bytes — the key digests the content), a reader racing an
    eviction either got its bytes first or takes a clean miss, and
    racing evictors fail their duplicate removes harmlessly. *)

type t

(** Open (creating if needed) a cache rooted at [dir], bounded to
    [max_entries] entries when given (unbounded otherwise), and take the
    running binary's build fingerprint.  Raises
    [Sys_error]/[Unix.Unix_error] only if [dir] cannot be created. *)
val create : ?max_entries:int -> dir:string -> unit -> t

(** Cache key of a text under the running binary: a digest of
    (build fingerprint, source). *)
val key : t -> source:string -> string

(** Path a key's entry lives at — the ci gates truncate this file to
    prove corrupt entries are recomputed. *)
val entry_path : t -> key:string -> string

(** [find t ~key] is the stored payload, or [None] on miss {b or} any
    integrity failure (bad header, short payload, checksum mismatch).
    Failed entries are removed. *)
val find : t -> key:string -> string option

(** Persist [payload] under [key].  The commit path is write-temp,
    fsync, atomic-rename: the entry either appears whole and durable or
    not at all.  Any I/O failure (including the injected ENOSPC /
    short-write / fsync faults of {!Ipcp_support.Fault.disk} at site
    [cache.commit:<key>]) leaves the cache without the entry, the temp
    file cleaned up, and returns [Error detail] — the cache is an
    accelerator, not a store of record, so the caller decides policy
    (the server degrades to cacheless operation). *)
val store : t -> key:string -> string -> (unit, string) result

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  evictions : int;
}

val stats : t -> stats
