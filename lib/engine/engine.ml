module Telemetry = Ipcp_telemetry.Telemetry

let default_jobs () = 1

let map ?(jobs = default_jobs ()) f items =
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  let jobs = min jobs n in
  (* Sequential reference path: a literal List.map, so `--jobs 1` is
     exactly the pre-engine behaviour (same evaluation order, same
     telemetry nesting). *)
  if jobs <= 1 then List.map f items
  else begin
    Telemetry.add "engine.pools" 1;
    Telemetry.add "engine.domains" jobs;
    Telemetry.add "engine.tasks" n;
    let slots = Array.make n None in
    let cursor = Atomic.make 0 in
    let parent_profiled = Telemetry.enabled () in
    (* Each worker drains the cursor; distinct indices mean no two
       domains ever write the same slot.  A raising task only marks its
       own slot, with the backtrace captured at the raise site before any
       other OCaml code runs in this domain. *)
    let run_tasks () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          slots.(i) <-
            Some
              (match f tasks.(i) with
              | r -> Ok r
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    let worker () =
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
    (* Surface the earliest failing item, like a sequential run would,
       with the worker's backtrace intact. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok r) -> r
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false (* every index below n was drawn *))
         slots)
  end
