(** A [Domain]-based work pool for independent analysis solves.

    The engine schedules a list of independent tasks — typically one
    (program × configuration) solve each — across OCaml 5 domains and
    returns the results {b in input order}, so parallel runs are
    byte-identical to sequential ones.  Tasks are handed out through an
    atomic cursor (no per-task locking); each result lands in its own
    preallocated slot, so workers never contend on shared structures.
    The engine consults no fault configuration: a task fails only by
    raising.

    Telemetry composes: the sink is domain-local, so each worker records
    into its own collector; when the parent domain joins the pool, worker
    collectors are folded into the parent's sink under [pool:domain-<i>]
    span nodes and the counters/distributions aggregate.  With no sink
    installed in the parent, workers record nothing — the engine stays
    zero-cost unprofiled, like the rest of the pipeline. *)

(** The default for [--jobs]: 1, the sequential path.  On a 2-core
    machine, with byte-identical output at each setting, extra domains
    only cost time: [ipcp tables] took 56–58 ms at 1 domain against
    146–164 ms at 2, and [ipcp analyze] of a 1600-procedure generated
    program 8.8–9.1 s against 9.8–10.0 s. *)
val default_jobs : unit -> int

(** [map ~jobs f items] applies [f] to every item and returns the results
    in input order.

    [jobs <= 1] (the default) runs sequentially in the calling domain —
    exactly [List.map f items], with no domain spawned and no telemetry
    regrouping.  Otherwise [min jobs (length items)] worker domains are
    spawned.

    If any task raises, the exception of the {b earliest} failing item is
    re-raised in the caller with the worker's original backtrace
    ([Printexc.raise_with_backtrace]) after all workers have joined
    (sequential runs fail at the first raising item, so the surfaced
    error agrees). *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
