(** A [Domain]-based work pool for independent analysis solves.

    The engine schedules a list of independent tasks — typically one
    (program × configuration) solve each — across OCaml 5 domains and
    returns the results {b in input order}, so parallel runs are
    byte-identical to sequential ones.  Tasks are handed out through an
    atomic cursor (no per-task locking); each result lands in its own
    preallocated slot, so workers never contend on shared structures.

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

(** One task's terminal failure: the exception, the backtrace captured
    at the raise site inside the worker, and how many attempts were
    {b actually made} — always [1 + retries] on the error path (the
    task exhausted every grant), never the retries that were left. *)
type task_error = {
  te_exn : exn;
  te_backtrace : Printexc.raw_backtrace;
  te_attempts : int;
}

(** [map_result ~jobs ~retries f items] applies [f] to every item with
    per-item fault containment: a raising task yields [Error] for its own
    slot and every other task still runs to completion.  Results come
    back in input order, so output is byte-identical at every [jobs]
    setting.  [retries] (default 0) grants each failing task that many
    re-runs before its error is recorded.

    Fault-injection probes ({!Ipcp_support.Fault}) fire once per attempt
    at site ["engine.task:<index>:<attempt>"] — keyed on the item, never
    on the executing domain, so a seeded fault run hits the same tasks
    sequentially and in parallel. *)
val map_result :
  ?jobs:int ->
  ?retries:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, task_error) result list

(** Like {!map_result}, but each slot also carries the number of attempts
    actually made for that item (1..retries+1), for successes as well as
    failures: a task that fails twice and succeeds on the third try
    reports [(Ok _, 3)].  The per-run total is recorded in the
    ["engine.attempts"] telemetry counter. *)
val map_result_attempts :
  ?jobs:int ->
  ?retries:int ->
  ('a -> 'b) ->
  'a list ->
  (('b, task_error) result * int) list

(** [map ~jobs f items] applies [f] to every item and returns the results
    in input order.

    [jobs <= 1] (the default when no pool is wanted) runs sequentially in
    the calling domain — exactly [List.map f items], today's sequential
    path, with no domain spawned and no telemetry regrouping (unless
    retries are requested or fault injection is active, which route
    through {!map_result}).  Otherwise [min jobs (length items)] worker
    domains are spawned.

    If any task terminally fails, the exception of the {b earliest}
    failing item is re-raised in the caller with the worker's original
    backtrace ([Printexc.raise_with_backtrace]) after all workers have
    joined (sequential runs fail at the first raising item, so the
    surfaced error agrees). *)
val map : ?jobs:int -> ?retries:int -> ('a -> 'b) -> 'a list -> 'b list
