(* Unit tests for the telemetry subsystem: span nesting and ordering,
   counter accumulation, distributions, zero-cost-when-disabled behaviour,
   and JSON export round-trips through the bundled parser. *)

open Ipcp_telemetry

let check = Alcotest.check

(* A deterministic clock: every reading advances 10 ns. *)
let ticking_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 10;
    !t

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_disabled_is_noop () =
  (* no reporter installed: recording calls must be invisible no-ops *)
  let r = Telemetry.span "ghost" (fun () -> 41 + 1) in
  check Alcotest.int "span returns body value" 42 r;
  Telemetry.incr "ghost.counter";
  Telemetry.observe "ghost.dist" 7;
  check Alcotest.bool "not enabled" false (Telemetry.enabled ())

let test_span_nesting () =
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter t (fun () ->
      Telemetry.span "outer" (fun () ->
          Telemetry.span "inner_a" ignore;
          Telemetry.span "inner_b" ignore));
  match Telemetry.spans t with
  | [ outer ] ->
    check Alcotest.string "outer name" "outer" outer.sp_name;
    check (Alcotest.list Alcotest.string) "children in entry order"
      [ "inner_a"; "inner_b" ]
      (List.map (fun s -> s.Telemetry.sp_name) outer.sp_children);
    check Alcotest.bool "outer spans its children" true
      (outer.sp_ns
      >= List.fold_left
           (fun acc s -> acc + s.Telemetry.sp_ns)
           0 outer.sp_children)
  | spans -> Alcotest.failf "expected one top-level span, got %d" (List.length spans)

let test_span_aggregation () =
  (* the same name under the same parent aggregates, not duplicates *)
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter t (fun () ->
      for _ = 1 to 3 do
        Telemetry.span "phase" ignore
      done);
  match Telemetry.spans t with
  | [ phase ] ->
    check Alcotest.int "three calls" 3 phase.sp_calls;
    check Alcotest.int "10 ns per call" 30 phase.sp_ns
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_span_ordering_top_level () =
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter t (fun () ->
      Telemetry.span "first" ignore;
      Telemetry.span "second" ignore;
      Telemetry.span "first" ignore);
  check (Alcotest.list Alcotest.string) "first-entered order, aggregated"
    [ "first"; "second" ]
    (List.map (fun s -> s.Telemetry.sp_name) (Telemetry.spans t));
  (* the same under a parent with a child per procedure *)
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  let names = List.init 2000 (Printf.sprintf "child%d") in
  Telemetry.with_reporter t (fun () ->
      Telemetry.span "parent" (fun () ->
          List.iter (fun n -> Telemetry.span n ignore) names;
          List.iter (fun n -> Telemetry.span n ignore) (List.rev names)));
  let children =
    List.concat_map (fun s -> s.Telemetry.sp_children) (Telemetry.spans t)
  in
  check (Alcotest.list Alcotest.string) "many children in first-entered order"
    names
    (List.map (fun s -> s.Telemetry.sp_name) children);
  check Alcotest.bool "every child aggregated" true
    (List.for_all (fun s -> s.Telemetry.sp_calls = 2) children)

(* The frontend reports parsing (which pulls its tokens from the lexer)
   and resolution as siblings. *)
let test_frontend_spans () =
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      ignore (Ipcp_frontend.Sema.check "program t\nprint *, 1\nend\n"));
  match Telemetry.spans t with
  | [ frontend ] ->
    check (Alcotest.list Alcotest.string) "frontend > parse, sema"
      [ "parse"; "sema" ]
      (List.map (fun s -> s.Telemetry.sp_name) frontend.sp_children)
  | _ -> Alcotest.fail "expected one frontend span"

let test_span_survives_exception () =
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  (try
     Telemetry.with_reporter t (fun () ->
         Telemetry.span "outer" (fun () ->
             Telemetry.span "thrower" (fun () -> failwith "boom")))
   with Failure _ -> ());
  (* both spans closed despite the exception; a later span nests correctly *)
  Telemetry.with_reporter t (fun () -> Telemetry.span "after" ignore);
  let names = List.map (fun s -> s.Telemetry.sp_name) (Telemetry.spans t) in
  check (Alcotest.list Alcotest.string) "stack unwound" [ "outer"; "after" ]
    names

let test_reporter_restored () =
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      check Alcotest.bool "enabled inside" true (Telemetry.enabled ()));
  check Alcotest.bool "disabled outside" false (Telemetry.enabled ())

(* ------------------------------------------------------------------ *)
(* Counters and distributions *)

let test_counter_accumulation () =
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      Telemetry.incr "a";
      Telemetry.add "a" 4;
      Telemetry.add "b" 2;
      Telemetry.incr "a");
  check (Alcotest.option Alcotest.int) "a" (Some 6) (Telemetry.counter t "a");
  check (Alcotest.option Alcotest.int) "b" (Some 2) (Telemetry.counter t "b");
  check (Alcotest.option Alcotest.int) "untouched" None (Telemetry.counter t "c");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted" [ ("a", 6); ("b", 2) ] (Telemetry.counters t)

let test_distribution_order () =
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      List.iter (Telemetry.observe "d") [ 5; 1; 9 ]);
  check (Alcotest.list Alcotest.int) "recording order" [ 5; 1; 9 ]
    (Telemetry.distribution t "d")

(* ------------------------------------------------------------------ *)
(* Domains and merging *)

let test_fresh_domain_has_no_sink () =
  (* the reporter is domain-local: a spawned domain starts disabled even
     while the parent is inside with_reporter *)
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      check Alcotest.bool "enabled in parent" true (Telemetry.enabled ());
      let d = Domain.spawn (fun () -> Telemetry.enabled ()) in
      check Alcotest.bool "fresh domain disabled" false (Domain.join d));
  check
    (Alcotest.option Alcotest.int)
    "nothing leaked into the parent collector" None
    (Telemetry.counter t "ghost")

let test_merge_aggregates () =
  let src = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter src (fun () ->
      Telemetry.span "work" (fun () -> Telemetry.span "sub" ignore);
      Telemetry.add "c" 3;
      Telemetry.observe "d" 7);
  let into = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter into (fun () ->
      Telemetry.span "work" ignore;
      Telemetry.add "c" 1;
      Telemetry.observe "d" 5);
  Telemetry.merge ~into src;
  check (Alcotest.option Alcotest.int) "counters add" (Some 4)
    (Telemetry.counter into "c");
  check (Alcotest.list Alcotest.int) "distributions concatenate" [ 5; 7 ]
    (Telemetry.distribution into "d");
  match Telemetry.spans into with
  | [ work ] ->
    check Alcotest.string "span name" "work" work.sp_name;
    check Alcotest.int "calls aggregate" 2 work.sp_calls;
    check (Alcotest.list Alcotest.string) "children grafted" [ "sub" ]
      (List.map (fun s -> s.Telemetry.sp_name) work.sp_children)
  | spans ->
    Alcotest.failf "expected one top-level span, got %d" (List.length spans)

let test_merge_under () =
  let src = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter src (fun () -> Telemetry.span "task" ignore);
  let into = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.merge ~under:"pool:domain-0" ~into src;
  match Telemetry.spans into with
  | [ pool ] ->
    check Alcotest.string "grafted under the named child" "pool:domain-0"
      pool.sp_name;
    check (Alcotest.list Alcotest.string) "source spans inside" [ "task" ]
      (List.map (fun s -> s.Telemetry.sp_name) pool.sp_children)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_worker_domains_merge_race_free () =
  (* the engine's protocol by hand: each worker collects into its own
     domain-local reporter, and the parent merges after join — every
     worker's counters and spans must land exactly once *)
  let parent = Telemetry.create () in
  Telemetry.with_reporter parent (fun () ->
      let workers =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                let t = Telemetry.create () in
                Telemetry.with_reporter t (fun () ->
                    Telemetry.span "stage" ignore;
                    Telemetry.add "worker.items" (i + 1));
                t))
      in
      List.iteri
        (fun i d ->
          Telemetry.merge
            ~under:(Printf.sprintf "pool:domain-%d" i)
            ~into:parent (Domain.join d))
        workers);
  check
    (Alcotest.option Alcotest.int)
    "counters from every domain, once each" (Some 10)
    (Telemetry.counter parent "worker.items");
  let pools =
    List.map (fun s -> s.Telemetry.sp_name) (Telemetry.spans parent)
  in
  check (Alcotest.list Alcotest.string) "one span group per domain"
    [ "pool:domain-0"; "pool:domain-1"; "pool:domain-2"; "pool:domain-3" ]
    pools;
  List.iter
    (fun s ->
      check (Alcotest.list Alcotest.string)
        (s.Telemetry.sp_name ^ " carries the worker's spans")
        [ "stage" ]
        (List.map (fun c -> c.Telemetry.sp_name) s.Telemetry.sp_children))
    (Telemetry.spans parent)

(* ------------------------------------------------------------------ *)
(* JSON *)

let json = Alcotest.testable Json.pp Json.equal

let roundtrip doc =
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> doc'
  | Error m -> Alcotest.failf "reparse failed: %s" m

let test_json_roundtrip_values () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("xs", Json.Arr [ Json.Int 1; Json.Arr []; Json.Obj [] ]);
      ]
  in
  check json "compact round-trip" doc (roundtrip doc);
  (match Json.of_string (Json.to_string_pretty doc) with
  | Ok doc' -> check json "pretty round-trip" doc doc'
  | Error m -> Alcotest.failf "pretty reparse failed: %s" m);
  (* malformed inputs are rejected, not crashed on *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "\"unterminated"; "{} trailing"; "nul"; "" ]

let test_profile_export_roundtrip () =
  let t = Telemetry.create ~clock:(ticking_clock ()) () in
  Telemetry.with_reporter t (fun () ->
      Telemetry.span "analyze" (fun () ->
          Telemetry.span "stage1:return_jfs" ignore;
          Telemetry.span "stage2:forward_jfs" ignore);
      Telemetry.add "solver.meets" 7;
      Telemetry.observe "jf.site_cost" 3;
      Telemetry.observe "jf.site_cost" 5);
  let doc = Telemetry.to_json t in
  let doc' = roundtrip doc in
  check json "export round-trips" doc doc';
  check
    (Alcotest.option Alcotest.string)
    "schema tag"
    (Some Telemetry.schema_version)
    (Option.bind (Json.member "schema" doc') Json.to_string_opt);
  check
    (Alcotest.option Alcotest.int)
    "counter exported" (Some 7)
    (Option.bind (Json.path [ "counters"; "solver.meets" ] doc') Json.to_int_opt);
  check
    (Alcotest.option Alcotest.int)
    "distribution count" (Some 2)
    (Option.bind
       (Json.path [ "distributions"; "jf.site_cost"; "count" ] doc')
       Json.to_int_opt);
  (* span tree survives: analyze has both stages as children *)
  let stage_names =
    match Option.bind (Json.member "spans" doc') Json.to_list_opt with
    | Some (analyze :: _) ->
      Option.bind (Json.member "children" analyze) Json.to_list_opt
      |> Option.value ~default:[]
      |> List.filter_map (fun c ->
             Option.bind (Json.member "name" c) Json.to_string_opt)
    | _ -> []
  in
  check (Alcotest.list Alcotest.string) "stages under analyze"
    [ "stage1:return_jfs"; "stage2:forward_jfs" ]
    stage_names

(* ------------------------------------------------------------------ *)
(* The instrumented pipeline *)

let analyzed_program () =
  Ipcp_frontend.Sema.parse_and_resolve
    "program main\n\
     integer n\n\
     n = 6\n\
     call work(n)\n\
     end\n\
     subroutine work(k)\n\
     integer k\n\
     print *, k, k * 7\n\
     end\n"

let test_pipeline_emits_stages () =
  let t = Telemetry.create () in
  let prog = analyzed_program () in
  let driver =
    Telemetry.with_reporter t (fun () ->
        Ipcp_core.Driver.analyze Ipcp_core.Config.default prog)
  in
  let rec flatten (s : Telemetry.span_snapshot) =
    s.sp_name :: List.concat_map flatten s.sp_children
  in
  let names = List.concat_map flatten (Telemetry.spans t) in
  List.iter
    (fun stage ->
      check Alcotest.bool (stage ^ " present") true (List.mem stage names))
    [
      "analyze"; "stage1:return_jfs"; "stage2:forward_jfs"; "stage3:propagate";
      "stage4:record"; "modref"; "build_ir:work";
    ];
  check Alcotest.bool "solver counters present" true
    (Telemetry.counter t "solver.worklist.pops" <> None);
  check Alcotest.bool "per-kind eval count present" true
    (Telemetry.counter t "jf.eval.passthrough" <> None);
  (* and the analysis result is unaffected by profiling *)
  let plain = Ipcp_core.Driver.analyze Ipcp_core.Config.default prog in
  check Alcotest.int "same constants with and without profiling"
    (Ipcp_core.Driver.constants_count plain)
    (Ipcp_core.Driver.constants_count driver)

(* [analyze --certify] reports one [certify] span with a child per
   obligation family it checked; the baseline has no edges to check. *)
let test_certify_spans () =
  let _, source, _ = List.hd (Test_certify.suite_programs ()) in
  let path = Test_certify.write_temp source in
  let children flags =
    let json = Filename.temp_file "ipcp_certify" ".json" in
    let code, _ =
      Test_certify.run_cli
        ([ "analyze"; "--certify"; "--profile-json"; json ] @ flags @ [ path ])
    in
    check Alcotest.int "analyze --certify exits 0" 0 code;
    let doc = In_channel.with_open_bin json In_channel.input_all in
    Sys.remove json;
    let name j = Option.bind (Json.member "name" j) Json.to_string_opt in
    match Json.of_string doc with
    | Error e -> Alcotest.fail e
    | Ok doc -> (
      let spans =
        Option.bind (Json.member "spans" doc) Json.to_list_opt
        |> Option.value ~default:[]
      in
      match List.filter (fun s -> name s = Some "certify") spans with
      | [ certify ] ->
        Option.bind (Json.member "children" certify) Json.to_list_opt
        |> Option.value ~default:[]
        |> List.filter_map name
      | _ -> Alcotest.fail "expected one top-level certify span")
  in
  check
    (Alcotest.list Alcotest.string)
    "interprocedural families"
    [ "edges"; "entry"; "coverage"; "mod"; "sccp"; "exec" ]
    (children []);
  check
    (Alcotest.list Alcotest.string)
    "--intra-only families"
    [ "intra"; "mod"; "sccp"; "exec" ]
    (children [ "--intra-only" ]);
  Sys.remove path

let suite =
  [
    ("telemetry disabled is a no-op", `Quick, test_disabled_is_noop);
    ("telemetry span nesting", `Quick, test_span_nesting);
    ("telemetry span aggregation", `Quick, test_span_aggregation);
    ("telemetry span ordering", `Quick, test_span_ordering_top_level);
    ("telemetry span survives exception", `Quick, test_span_survives_exception);
    ("telemetry frontend > parse, sema", `Quick, test_frontend_spans);
    ("telemetry reporter restored", `Quick, test_reporter_restored);
    ("telemetry fresh domain has no sink", `Quick,
     test_fresh_domain_has_no_sink);
    ("telemetry merge aggregates", `Quick, test_merge_aggregates);
    ("telemetry merge under a named child", `Quick, test_merge_under);
    ("telemetry worker domains merge race-free", `Quick,
     test_worker_domains_merge_race_free);
    ("telemetry counter accumulation", `Quick, test_counter_accumulation);
    ("telemetry distribution order", `Quick, test_distribution_order);
    ("telemetry json value round-trip", `Quick, test_json_roundtrip_values);
    ("telemetry profile export round-trip", `Quick, test_profile_export_roundtrip);
    ("telemetry pipeline emits stages", `Quick, test_pipeline_emits_stages);
    ("telemetry certify spans per obligation family", `Quick,
     test_certify_spans);
  ]
