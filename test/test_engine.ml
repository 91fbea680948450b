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

(* ---- fault containment: map_result ---- *)

let test_map_result_contains_failures () =
  let n = 24 in
  let f x = if x mod 3 = 0 then failwith ("task " ^ string_of_int x) else x * 2 in
  List.iter
    (fun jobs ->
      let rs = Ipcp_engine.Engine.map_result ~jobs f (List.init n Fun.id) in
      check Alcotest.int (Fmt.str "jobs=%d: one slot per task" jobs) n
        (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
            check Alcotest.bool (Fmt.str "slot %d healthy" i) true
              (i mod 3 <> 0);
            check Alcotest.int (Fmt.str "slot %d value" i) (i * 2) v
          | Error (te : Ipcp_engine.Engine.task_error) -> (
            check Alcotest.bool (Fmt.str "slot %d failing" i) true
              (i mod 3 = 0);
            check Alcotest.int "single attempt" 1 te.te_attempts;
            match te.te_exn with
            | Failure m ->
              check Alcotest.string "task's own error"
                ("task " ^ string_of_int i)
                m
            | e ->
              Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)))
        rs)
    [ 1; 2; 4; 8 ]

let test_map_result_retries () =
  (* flaky tasks: fail on the first attempt, succeed on the second *)
  let n = 12 in
  let attempts = Array.init n (fun _ -> Atomic.make 0) in
  let f x =
    if Atomic.fetch_and_add attempts.(x) 1 = 0 then failwith "flaky" else x
  in
  let rs = Ipcp_engine.Engine.map_result ~jobs:4 ~retries:1 f (List.init n Fun.id) in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.int (Fmt.str "slot %d recovered" i) i v
      | Error _ -> Alcotest.fail (Fmt.str "slot %d should have recovered" i))
    rs;
  Array.iteri
    (fun i a ->
      check Alcotest.int (Fmt.str "task %d attempted twice" i) 2 (Atomic.get a))
    attempts

(* Regression: te_attempts / the attempts slot must count attempts
   actually made, not the retries that were still left.  A task failing
   twice and succeeding on the third try under ~retries:2 reports
   (Ok _, 3) — the bug this pins reported the remaining grant instead. *)
let test_map_result_attempts_counts_actual_attempts () =
  let n = 8 in
  let tries = Array.init n (fun _ -> Atomic.make 0) in
  let f x =
    let a = Atomic.fetch_and_add tries.(x) 1 in
    if x mod 2 = 0 && a < 2 then failwith "flaky until third try" else x
  in
  List.iter
    (fun jobs ->
      Array.iter (fun a -> Atomic.set a 0) tries;
      let rs =
        Ipcp_engine.Engine.map_result_attempts ~jobs ~retries:2 f
          (List.init n Fun.id)
      in
      List.iteri
        (fun i (r, attempts) ->
          (match r with
          | Ok v -> check Alcotest.int (Fmt.str "slot %d value" i) i v
          | Error _ -> Alcotest.fail (Fmt.str "slot %d should recover" i));
          let expected = if i mod 2 = 0 then 3 else 1 in
          check Alcotest.int
            (Fmt.str "jobs=%d slot %d attempts actually made" jobs i)
            expected attempts)
        rs;
      (* the exhausted-grant error path agrees: always 1 + retries *)
      let always_fail _ = failwith "never" in
      match Ipcp_engine.Engine.map_result_attempts ~jobs ~retries:2 always_fail [ 0 ] with
      | [ (Error te, attempts) ] ->
        check Alcotest.int "error path attempts" 3 te.te_attempts;
        check Alcotest.int "error path slot attempts" 3 attempts
      | _ -> Alcotest.fail "expected a single failing slot")
    [ 1; 4 ]

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
    ("engine map_result contains failures", `Quick,
     test_map_result_contains_failures);
    ("engine map_result retries", `Quick, test_map_result_retries);
    ("engine map_result_attempts counts actual attempts", `Quick,
     test_map_result_attempts_counts_actual_attempts);
    ("engine map preserves worker backtrace", `Quick,
     test_map_preserves_worker_backtrace);
  ]
