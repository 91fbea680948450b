module Telemetry = Ipcp_telemetry.Telemetry
module Fault = Ipcp_support.Fault

let default_jobs () = 1

(* Sequential reference path: used for jobs <= 1 and for empty inputs.
   Kept as a literal List.map so `--jobs 1` is exactly the pre-engine
   behaviour (same evaluation order, same telemetry nesting). *)
let map_seq f items = List.map f items

type task_error = {
  te_exn : exn;
  te_backtrace : Printexc.raw_backtrace;
  te_attempts : int;
}

(* Run one task with containment: every attempt is preceded by a fault
   probe keyed on (item index, attempt) only — never on the executing
   domain — so a seeded fault run hits the same tasks at every [--jobs]
   setting.  The backtrace is captured at the raise site, before any
   other OCaml code runs in this domain.

   The second component counts the attempts actually made (1..retries+1)
   whatever the outcome — a task that fails twice and succeeds on the
   third try reports 3, exactly like one that fails all three times.
   [te_attempts] carries the same number on the error path, never the
   retries that were left. *)
let run_task ~retries f (tasks : 'a array) i :
    ('b, task_error) result * int =
  let item = tasks.(i) in
  let rec attempt k =
    match
      Fault.inject (Printf.sprintf "engine.task:%d:%d" i k);
      f item
    with
    | r -> (Ok r, k + 1)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if k < retries then attempt (k + 1)
      else (Error { te_exn = e; te_backtrace = bt; te_attempts = k + 1 }, k + 1)
  in
  attempt 0

let map_result_attempts ?(jobs = default_jobs ()) ?(retries = 0) f items :
    (('b, task_error) result * int) list =
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  let jobs = min jobs n in
  let results =
    if jobs <= 1 then begin
      (* explicit left-to-right loop: item i's faults and retries happen
         before item i+1 is touched, like the pre-engine pipeline *)
      let rec go acc i =
        if i = n then List.rev acc
        else go (run_task ~retries f tasks i :: acc) (i + 1)
      in
      go [] 0
    end
    else begin
      Telemetry.add "engine.pools" 1;
      Telemetry.add "engine.domains" jobs;
      Telemetry.add "engine.tasks" n;
      let slots : (('b, task_error) result * int) option array =
        Array.make n None
      in
      let cursor = Atomic.make 0 in
      let parent_profiled = Telemetry.enabled () in
      (* Each worker drains the cursor; distinct indices mean no two
         domains ever write the same slot.  A raising task only marks its
         own slot — the other tasks run to completion regardless. *)
      let worker () =
        let run_tasks () =
          let rec loop () =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < n then begin
              slots.(i) <- Some (run_task ~retries f tasks i);
              loop ()
            end
          in
          loop ()
        in
        if not parent_profiled then begin
          run_tasks ();
          None
        end
        else begin
          let collector = Telemetry.create () in
          Telemetry.with_reporter collector run_tasks;
          Some collector
        end
      in
      let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
      let collectors = Array.map Domain.join domains in
      (match Telemetry.current () with
      | None -> ()
      | Some sink ->
        Array.iteri
          (fun i collector ->
            match collector with
            | None -> ()
            | Some c ->
              Telemetry.merge ~under:(Printf.sprintf "pool:domain-%d" i)
                ~into:sink c)
          collectors);
      Array.to_list (Array.map Option.get slots)
    end
  in
  if Telemetry.enabled () then begin
    Telemetry.add "engine.task_errors"
      (List.fold_left
         (fun acc -> function Error _, _ -> acc + 1 | Ok _, _ -> acc)
         0 results);
    Telemetry.add "engine.attempts"
      (List.fold_left (fun acc (_, attempts) -> acc + attempts) 0 results)
  end;
  results

let map_result ?jobs ?retries f items : ('b, task_error) result list =
  List.map fst (map_result_attempts ?jobs ?retries f items)

let map ?(jobs = default_jobs ()) ?(retries = 0) f items =
  if jobs <= 1 && retries = 0 && not (Fault.active ()) then map_seq f items
  else begin
    let results = map_result ~jobs ~retries f items in
    (* Surface the earliest failing item, like a sequential run would,
       with the worker's backtrace intact. *)
    let rec unwrap = function
      | [] -> []
      | Ok r :: rest -> r :: unwrap rest
      | Error te :: _ ->
        Printexc.raise_with_backtrace te.te_exn te.te_backtrace
    in
    unwrap results
  end
