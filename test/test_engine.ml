(* Unit tests for the deterministic work pool: input-order results at
   every jobs count, exception propagation, degenerate inputs, and the
   per-domain telemetry merge. *)

open Ipcp_telemetry

let check = Alcotest.check

let test_map_preserves_order () =
  let items = List.init 37 Fun.id in
  let expected = List.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.int)
        (Fmt.str "jobs=%d" jobs)
        expected
        (Ipcp_engine.Engine.map ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 8 ]

let test_map_degenerate_inputs () =
  check (Alcotest.list Alcotest.int) "empty list" []
    (Ipcp_engine.Engine.map ~jobs:4 Fun.id []);
  check (Alcotest.list Alcotest.int) "more jobs than items" [ 10; 20 ]
    (Ipcp_engine.Engine.map ~jobs:16 (fun x -> x * 10) [ 1; 2 ])

let test_map_exception_propagates () =
  (* a failing item aborts the map; the earliest failing item wins *)
  match
    Ipcp_engine.Engine.map ~jobs:3
      (fun x -> if x mod 2 = 1 then failwith (string_of_int x) else x)
      [ 0; 1; 2; 3 ]
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure m -> check Alcotest.string "earliest failing item" "1" m

let test_pool_merges_worker_telemetry () =
  let t = Telemetry.create () in
  let results =
    Telemetry.with_reporter t (fun () ->
        Ipcp_engine.Engine.map ~jobs:2
          (fun x ->
            Telemetry.span "task" ignore;
            Telemetry.incr "task.count";
            x)
          [ 1; 2; 3; 4 ])
  in
  check (Alcotest.list Alcotest.int) "results" [ 1; 2; 3; 4 ] results;
  check
    (Alcotest.option Alcotest.int)
    "counters from all workers merged" (Some 4)
    (Telemetry.counter t "task.count");
  check
    (Alcotest.option Alcotest.int)
    "pool bookkeeping counters" (Some 4)
    (Telemetry.counter t "engine.tasks");
  let rec flatten (s : Telemetry.span_snapshot) =
    s.sp_name :: List.concat_map flatten s.sp_children
  in
  let names = List.concat_map flatten (Telemetry.spans t) in
  let is_pool n =
    String.length n >= 12 && String.sub n 0 12 = "pool:domain-"
  in
  check Alcotest.bool "per-domain span group present" true
    (List.exists is_pool names);
  check Alcotest.bool "worker spans grafted into parent" true
    (List.mem "task" names)

let test_sequential_path_no_pool_counters () =
  (* jobs=1 must be the plain sequential path: no domains, no pool spans *)
  let t = Telemetry.create () in
  let results =
    Telemetry.with_reporter t (fun () ->
        Ipcp_engine.Engine.map ~jobs:1
          (fun x ->
            Telemetry.incr "task.count";
            x)
          [ 1; 2; 3 ])
  in
  check (Alcotest.list Alcotest.int) "results" [ 1; 2; 3 ] results;
  check
    (Alcotest.option Alcotest.int)
    "counters recorded directly" (Some 3)
    (Telemetry.counter t "task.count");
  check
    (Alcotest.option Alcotest.int)
    "no pool bookkeeping" None
    (Telemetry.counter t "engine.pools")

let test_default_jobs_positive () =
  check Alcotest.bool "at least one domain" true
    (Ipcp_engine.Engine.default_jobs () >= 1)

(* Regression: the exception surfaced by map must carry the worker's own
   backtrace (raise_with_backtrace), not a fresh one from the join. *)
let rec deep_raise n =
  if n = 0 then failwith "deep boom" else 1 + deep_raise (n - 1)

let test_map_preserves_worker_backtrace () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace was) @@ fun () ->
  match
    Ipcp_engine.Engine.map ~jobs:2
      (fun x -> if x = 1 then deep_raise 5 else x)
      [ 0; 1; 2; 3 ]
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure m ->
    check Alcotest.string "worker's exception" "deep boom" m;
    let bt = Printexc.get_backtrace () in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool
      (Fmt.str "backtrace reaches the worker frames: %s" bt)
      true
      (contains "test_engine" bt)

let suite =
  [
    ("engine map preserves order", `Quick, test_map_preserves_order);
    ("engine map degenerate inputs", `Quick, test_map_degenerate_inputs);
    ("engine map propagates exceptions", `Quick, test_map_exception_propagates);
    ("engine pool merges worker telemetry", `Quick,
     test_pool_merges_worker_telemetry);
    ("engine jobs=1 is the sequential path", `Quick,
     test_sequential_path_no_pool_counters);
    ("engine default jobs positive", `Quick, test_default_jobs_positive);
    ("engine map preserves worker backtrace", `Quick,
     test_map_preserves_worker_backtrace);
  ]
