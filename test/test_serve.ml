(* The serving layer: wire protocol round-trips, bounded-queue policy,
   and whole-server properties driven
   through in-process [Server.run] and [Server.run_listen] —
   conservation of responses under backpressure (stdio) and load
   shedding (sockets) at several worker counts, fault containment, the
   per-input circuit breaker, and byte-identity against the direct
   renderers. *)

let check = Alcotest.check

module Json = Ipcp_telemetry.Json
module Fault = Ipcp_support.Fault
module Err = Ipcp_serve.Err
module Request = Ipcp_serve.Request
module Jobs = Ipcp_serve.Jobs
module Bqueue = Ipcp_serve.Bqueue
module Server = Ipcp_serve.Server
module Driver = Ipcp_core.Driver
module Config = Ipcp_core.Config
module Registry = Ipcp_suite.Registry

let tmp_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ipcp-test-serve-%s.%d.%d" label (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o700;
    dir

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- wire protocol ---- *)

let test_request_parse () =
  (match
     Request.of_line
       {|{"id":"a","op":"analyze","suite":"adm","jf":"literal","certify":true}|}
   with
  | Ok r ->
    check Alcotest.string "id" "a" r.rq_id;
    check Alcotest.bool "op" true (r.rq_op = Request.Analyze);
    check Alcotest.bool "target" true (r.rq_target = Some (Request.Suite "adm"));
    check Alcotest.bool "kind" true (r.rq_kind = Ipcp_core.Jump_function.Literal);
    check Alcotest.bool "certify" true r.rq_certify
  | Error e -> Alcotest.fail ("should parse: " ^ e.Request.pe_reason));
  let invalid line =
    match Request.of_line line with
    | Ok _ -> Alcotest.fail ("should be invalid: " ^ line)
    | Error e -> (e.Request.pe_id, Request.error_code_name e.Request.pe_code)
  in
  let invalid_id line = fst (invalid line) in
  check Alcotest.string "bad op keeps id" "x"
    (invalid_id {|{"id":"x","op":"frobnicate"}|});
  check Alcotest.string "bad op is coded" "E-REQ-OP"
    (snd (invalid {|{"id":"x","op":"frobnicate"}|}));
  check Alcotest.string "bad json is coded" "E-REQ-JSON"
    (snd (invalid "not json at all"));
  ignore (invalid_id {|{"id":"y","op":"analyze"}|});
  (* analyze needs a target *)
  ignore (invalid_id {|{"id":"z","op":"analyze","suite":"adm","file":"/tmp/x"}|});
  ignore (invalid_id {|{"id":"w","op":"tables","suite":"adm"}|});
  check Alcotest.string "bad field is coded" "E-REQ-FIELD"
    (snd (invalid {|{"id":"v","op":"analyze","suite":"adm","jf":17}|}));
  (* the analysis axis: parsed, defaulted, and refused with its own code *)
  (match Request.of_line {|{"id":"c","op":"analyze","suite":"adm","analysis":"copy"}|}
   with
  | Ok r -> check Alcotest.bool "copy analysis" true (r.rq_analysis = `Copy)
  | Error e -> Alcotest.fail e.Request.pe_reason);
  (match Request.of_line {|{"id":"c2","op":"analyze","suite":"adm"}|} with
  | Ok r -> check Alcotest.bool "default analysis" true (r.rq_analysis = `Const)
  | Error e -> Alcotest.fail e.Request.pe_reason);
  check Alcotest.string "bad analysis is coded" "E-REQ-ANALYSIS"
    (snd (invalid {|{"id":"u","op":"analyze","suite":"adm","analysis":"odd"}|}))

let test_response_round_trip () =
  let r =
    Request.response ~id:"r1" ~code:0 ~stdout:"line 1\nline \"2\"\n"
      ~stderr:"" Request.Ok_done
  in
  let line = Request.response_to_line r in
  check Alcotest.bool "single line" true
    (not (String.contains line '\n'));
  (match Request.response_of_line line with
  | Ok r' -> check Alcotest.bool "round-trips" true (r = r')
  | Error e -> Alcotest.fail e);
  let shed = Request.response ~id:"r2" ~reason:"displaced" Request.Shed in
  (match Request.response_of_line (Request.response_to_line shed) with
  | Ok r' ->
    check Alcotest.bool "status" true (r'.rs_status = Request.Shed);
    check Alcotest.bool "reason" true (r'.rs_reason = Some "displaced")
  | Error e -> Alcotest.fail e);
  (* a typed error object — with and without a location — survives the
     frame round-trip structurally *)
  List.iter
    (fun err ->
      let cf =
        Request.response ~id:"r3" ~code:4 ~reason:"withheld" ~error:err
          Request.Certification_failed
      in
      match Request.response_of_line (Request.response_to_line cf) with
      | Ok r' ->
        check Alcotest.bool "typed error round-trips" true
          (r'.rs_error = Some err && r'.rs_status = Request.Certification_failed)
      | Error e -> Alcotest.fail e)
    [
      Err.certification ~loc:"main:adm.mf:3:1" ~code:"E-CERT-EDGE" "bad edge";
      Err.quarantined "breaker open";
    ];
  (* a frame whose error object is malformed is a parse error, not a
     silently dropped field *)
  match
    Request.response_of_line
      {|{"id":"x","status":"invalid","error":"E-REQ-JSON"}|}
  with
  | Ok _ -> Alcotest.fail "legacy string error should not parse"
  | Error _ -> ()

(* ---- bounded queue ---- *)

let test_bqueue_reject_new () =
  let q = Bqueue.create ~capacity:2 ~policy:Bqueue.Reject_new in
  check Alcotest.bool "1st" true (Bqueue.push q 1 = Bqueue.Enqueued);
  check Alcotest.bool "2nd" true (Bqueue.push q 2 = Bqueue.Enqueued);
  check Alcotest.bool "3rd refused" true (Bqueue.push q 3 = Bqueue.Rejected);
  check Alcotest.int "still 2 queued" 2 (Bqueue.length q);
  check Alcotest.bool "oldest first" true (Bqueue.pop q = Some 1);
  check Alcotest.bool "refused one gone" true
    (Bqueue.pop q = Some 2 && Bqueue.pop q = None)

let test_bqueue_drop_oldest () =
  let q = Bqueue.create ~capacity:2 ~policy:Bqueue.Drop_oldest in
  ignore (Bqueue.push q 1);
  ignore (Bqueue.push q 2);
  check Alcotest.bool "oldest shed, newest in" true
    (Bqueue.push q 3 = Bqueue.Displaced 1);
  check Alcotest.bool "remaining order" true
    (Bqueue.pop q = Some 2 && Bqueue.pop q = Some 3 && Bqueue.pop q = None)

let test_bqueue_policy_names () =
  List.iter
    (fun p ->
      check Alcotest.bool "name round-trips" true
        (Bqueue.policy_of_name (Bqueue.policy_name p) = Some p))
    [ Bqueue.Reject_new; Bqueue.Drop_oldest ];
  check Alcotest.bool "unknown name" true (Bqueue.policy_of_name "lifo" = None)

let suite_prog name =
  match Registry.find name with
  | Some e -> Registry.program e
  | None -> Alcotest.fail ("no suite program " ^ name)

(* ---- whole-server properties (in-process run) ---- *)

let analyze_line ~id ~suite =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id); ("op", Json.Str "analyze"); ("suite", Json.Str suite) ])

let delta_line ?(session = "default") ~id suite =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id); ("op", Json.Str "analyze-delta");
         ("suite", Json.Str suite); ("session", Json.Str session) ])

let run_server ?(config = Server.default_config) lines =
  let dir = tmp_dir "run" in
  let in_path = Filename.concat dir "in.jsonl" in
  write_file in_path (String.concat "\n" lines ^ "\n");
  let out_path = Filename.concat dir "out.jsonl" in
  let fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let oc = open_out_bin out_path in
  let code = Server.run ~config ~input:fd ~output:oc () in
  Unix.close fd;
  close_out oc;
  let responses =
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          match Request.response_of_line l with
          | Ok r -> Some r
          | Error e -> Alcotest.fail (Printf.sprintf "bad frame %S: %s" l e))
      (String.split_on_char '\n' (read_file out_path))
  in
  (code, responses)

(* A burst far larger than a 2-slot queue: valid analyze lines, with
   every seventh line not a request. *)
let burst_ids = List.init 24 (fun i -> Printf.sprintf "r%02d" i)

let burst_lines =
  List.mapi
    (fun i id ->
      if i mod 7 = 3 then "this is not a request"
      else analyze_line ~id ~suite:(if i mod 2 = 0 then "adm" else "doduc"))
    burst_ids

(* Conservation of one burst at every worker count and both queue
   policies: exactly one terminal response per line (counted by id, not
   just in total), every status one of [allowed], and [check_statuses]
   run on each run's responses. *)
let check_burst_conservation
    ~(run : ?config:Server.config -> string list -> int * Request.response list)
    ~allowed ~check_statuses =
  List.iter
    (fun policy ->
      List.iter
        (fun workers ->
          let config =
            { Server.default_config with workers; queue_capacity = 2;
              queue_policy = policy }
          in
          let code, responses = run ~config burst_lines in
          check Alcotest.int
            (Printf.sprintf "workers=%d clean exit" workers) 0 code;
          check Alcotest.int
            (Printf.sprintf "workers=%d one response per line" workers)
            (List.length burst_lines) (List.length responses);
          List.iteri
            (fun i id ->
              if i mod 7 <> 3 then
                check Alcotest.int (id ^ " exactly one terminal response") 1
                  (List.length
                     (List.filter
                        (fun (r : Request.response) -> r.rs_id = id)
                        responses)))
            burst_ids;
          List.iter
            (fun (r : Request.response) ->
              if not (List.mem r.rs_status allowed) then
                Alcotest.fail
                  ("unexpected status: " ^ Request.status_name r.rs_status))
            responses;
          check_statuses policy
            (List.map (fun (r : Request.response) -> r.rs_status) responses))
        [ 1; 2; 4 ])
    [ Bqueue.Reject_new; Bqueue.Drop_oldest ]

(* Stdio has backpressure: a full queue pauses reading instead of
   shedding, so the burst is neither rejected nor shed. *)
let test_conservation_under_shedding () =
  check_burst_conservation ~run:run_server
    ~allowed:[ Request.Ok_done; Request.Invalid ]
    ~check_statuses:(fun _ _ -> ())

(* Conservation on the coded-refusal path: lines refused for an unknown
   analysis (and the other E-REQ codes) still get exactly one terminal
   frame each, addressed by the request id and carrying the stable
   machine-readable code, while neighbouring valid requests execute. *)
let test_conservation_of_coded_invalids () =
  let bad_analysis =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "bad-analysis");
           ("op", Json.Str "analyze");
           ("suite", Json.Str "adm");
           ("analysis", Json.Str "odd");
         ])
  in
  let bad_op =
    Json.to_string
      (Json.Obj [ ("id", Json.Str "bad-op"); ("op", Json.Str "frobnicate") ])
  in
  let lines =
    [
      analyze_line ~id:"ok-before" ~suite:"adm";
      bad_analysis;
      "not json at all";
      bad_op;
      analyze_line ~id:"ok-after" ~suite:"trfd";
    ]
  in
  List.iter
    (fun workers ->
      let config = { Server.default_config with workers } in
      let code, responses = run_server ~config lines in
      check Alcotest.int "clean exit" 0 code;
      check Alcotest.int "one response per line" (List.length lines)
        (List.length responses);
      let find id =
        match
          List.filter (fun (r : Request.response) -> r.rs_id = id) responses
        with
        | [ r ] -> r
        | rs ->
          Alcotest.fail
            (Printf.sprintf "%s: %d responses, expected exactly 1" id
               (List.length rs))
      in
      let expect_invalid id ecode =
        let r = find id in
        check Alcotest.bool (id ^ " invalid") true
          (r.rs_status = Request.Invalid);
        check Alcotest.(option string) (id ^ " error code") (Some ecode)
          (Option.map (fun (e : Err.t) -> e.Err.e_code) r.rs_error);
        check Alcotest.bool (id ^ " error well-formed") true
          (match r.rs_error with
          | Some e -> Err.well_formed e && e.Err.e_class = Err.Request_error
          | None -> false)
      in
      expect_invalid "bad-analysis" "E-REQ-ANALYSIS";
      expect_invalid "bad-op" "E-REQ-OP";
      expect_invalid "" "E-REQ-JSON";
      List.iter
        (fun id ->
          let r = find id in
          check Alcotest.bool (id ^ " executed") true
            (r.rs_status = Request.Ok_done);
          check Alcotest.bool (id ^ " no error object") true
            (r.rs_error = None))
        [ "ok-before"; "ok-after" ])
    [ 1; 2 ]

(* The analysis field end-to-end: a copy-analysis request is served with
   exactly the direct copy rendering, and the same suite under const
   stays byte-identical to the const renderer — the two clients never
   bleed into each other. *)
let test_serve_analysis_dispatch () =
  let line analysis id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str id);
           ("op", Json.Str "analyze");
           ("suite", Json.Str "adm");
           ("analysis", Json.Str analysis);
         ])
  in
  let code, responses = run_server [ line "copy" "c1"; line "const" "k1" ] in
  check Alcotest.int "exit" 0 code;
  let prog = suite_prog "adm" in
  let expect id (direct : Jobs.outcome) =
    match List.find_opt (fun (r : Request.response) -> r.rs_id = id) responses with
    | None -> Alcotest.fail ("no response for " ^ id)
    | Some r ->
      check Alcotest.bool (id ^ " ok") true (r.rs_status = Request.Ok_done);
      check Alcotest.bool (id ^ " stdout byte-identical") true
        (r.rs_stdout = Some direct.Jobs.out)
  in
  expect "c1"
    (Jobs.analyze
       ~config:(Config.with_analysis `Copy Config.default)
       ~jobs:1 prog);
  expect "k1" (Jobs.analyze ~config:Config.default ~jobs:1 prog)

(* Byte-identity: ok responses carry exactly the direct rendering. *)
let test_server_matches_direct () =
  let lines = [ analyze_line ~id:"adm" ~suite:"adm" ] in
  let code, responses = run_server lines in
  check Alcotest.int "exit" 0 code;
  match responses with
  | [ r ] ->
    let prog = suite_prog "adm" in
    let direct = Jobs.analyze ~config:Config.default ~jobs:1 prog in
    check Alcotest.bool "ok" true (r.rs_status = Request.Ok_done);
    check Alcotest.bool "stdout byte-identical" true
      (r.rs_stdout = Some direct.out);
    check Alcotest.bool "stderr byte-identical" true
      (r.rs_stderr = Some direct.err);
    check Alcotest.bool "code" true (r.rs_code = Some direct.code)
  | rs -> Alcotest.fail (Printf.sprintf "%d responses for 1 request" (List.length rs))

(* Whether request [seq] crashes at its worker-entry site under the
   installed fault configuration: the server's own eight draws,
   [serve.worker:<seq>:<k>], replayed. *)
let worker_site_crashes seq =
  try
    for k = 0 to 7 do
      Fault.inject (Printf.sprintf "serve.worker:%d:%d" seq k)
    done;
    false
  with Fault.Injected _ -> true

(* [--fault-rate] fells exactly the requests its serve.worker draws
   pick: nothing below the serve layer consults the fault configuration,
   so forty identical requests for one program crash or survive by
   sequence number alone, at every seed. *)
let test_fault_rate_fells_predicted_requests () =
  let n = 40 in
  let ids = List.init n (Printf.sprintf "o%02d") in
  let lines = List.map (fun id -> analyze_line ~id ~suite:"ocean") ids in
  let config =
    { Server.default_config with breaker_threshold = 0 }
  in
  List.iter
    (fun seed ->
      Fault.configure ~raise_rate:0.03 ~seed ();
      Fun.protect ~finally:Fault.clear @@ fun () ->
      let predicted =
        List.init n (fun seq -> if worker_site_crashes seq then "error" else "ok")
      in
      let _, responses = run_server ~config lines in
      let statuses =
        List.map
          (fun id ->
            match
              List.find_opt (fun (r : Request.response) -> r.rs_id = id)
                responses
            with
            | Some r -> Request.status_name r.rs_status
            | None -> "<missing>")
          ids
      in
      let label = Printf.sprintf "seed %d" seed in
      check
        (Alcotest.list Alcotest.string)
        (label ^ ": statuses are the serve.worker draws'")
        predicted statuses;
      check Alcotest.bool (label ^ ": some request crashed") true
        (List.mem "error" statuses);
      check Alcotest.bool (label ^ ": some request survived") true
        (List.mem "ok" statuses))
    [ 3; 42 ]

(* Fault containment: with the amplified serve.worker site firing for
   some sequence numbers, crashed requests answer [error] and the rest
   still answer [ok] with untouched bytes. *)
let test_fault_containment () =
  (* 0.03/seed 42: some requests crash and some survive *)
  Fault.configure ~raise_rate:0.03 ~seed:42 ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let n = 16 in
  let lines = List.init n (fun i -> analyze_line ~id:(Printf.sprintf "q%02d" i) ~suite:"adm") in
  let config =
    { Server.default_config with workers = 2; queue_capacity = 64;
      breaker_threshold = 0 }
  in
  let code, responses = run_server ~config lines in
  check Alcotest.int "clean exit under faults" 0 code;
  check Alcotest.int "conservation under faults" n (List.length responses);
  let count s =
    List.length
      (List.filter (fun (r : Request.response) -> r.rs_status = s) responses)
  in
  let errors = count Request.Error_crash and oks = count Request.Ok_done in
  check Alcotest.bool "some requests crashed" true (errors > 0);
  check Alcotest.bool "some requests survived" true (oks > 0);
  check Alcotest.int "every response accounted for" n (errors + oks);
  let prog = suite_prog "adm" in
  let direct = Jobs.analyze ~config:Config.default ~jobs:1 prog in
  List.iter
    (fun (r : Request.response) ->
      if r.rs_status = Request.Ok_done then
        check Alcotest.bool (r.rs_id ^ " survivor bytes untouched") true
          (r.rs_stdout = Some direct.out))
    responses

(* Circuit breaker: an input whose every execution crashes (raise rate
   1.0 fires the worker-entry site on the very first draw) is
   quarantined after [breaker_threshold] consecutive crashes; later
   requests for it answer [quarantined] without executing. *)
let test_breaker_quarantines_crashing_input () =
  Fault.configure ~raise_rate:1.0 ~seed:1 ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let n = 8 in
  let lines = List.init n (fun i -> analyze_line ~id:(Printf.sprintf "b%d" i) ~suite:"adm") in
  let config =
    { Server.default_config with workers = 1; breaker_threshold = 3 }
  in
  let code, responses = run_server ~config lines in
  check Alcotest.int "clean exit" 0 code;
  check Alcotest.int "conservation" n (List.length responses);
  let statuses =
    List.map
      (fun id ->
        match
          List.find_opt (fun (r : Request.response) -> r.rs_id = id) responses
        with
        | Some r -> Request.status_name r.rs_status
        | None -> "<missing>")
      (List.init n (fun i -> Printf.sprintf "b%d" i))
  in
  check
    (Alcotest.list Alcotest.string)
    "threshold crashes, then quarantine"
    [ "error"; "error"; "error"; "quarantined"; "quarantined"; "quarantined";
      "quarantined"; "quarantined" ]
    statuses;
  (* threshold 0 disables the breaker entirely *)
  let config0 = { config with breaker_threshold = 0 } in
  let _, responses0 = run_server ~config:config0 lines in
  check Alcotest.bool "breaker off: every request still executes (and crashes)"
    true
    (List.for_all
       (fun (r : Request.response) -> r.rs_status = Request.Error_crash)
       responses0)

(* The same fault stream must produce the same statuses at every worker
   count — the serve.worker site is keyed on the sequence number. *)
let test_fault_statuses_deterministic_across_workers () =
  Fault.configure ~raise_rate:0.03 ~seed:42 ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  (* distinct inputs, so the breaker never opens and ordering noise
     cannot hide behind quarantine *)
  let suites = [ "adm"; "doduc"; "fpppp"; "adm"; "doduc"; "fpppp" ] in
  let lines =
    List.mapi
      (fun i s -> analyze_line ~id:(Printf.sprintf "d%d" i) ~suite:s)
      suites
  in
  let statuses workers =
    let config =
      { Server.default_config with workers; breaker_threshold = 0 }
    in
    let _, responses = run_server ~config lines in
    List.sort compare
      (List.map
         (fun (r : Request.response) -> (r.rs_id, Request.status_name r.rs_status))
         responses)
  in
  let s1 = statuses 1 in
  check Alcotest.bool "at least one injected crash" true
    (List.exists (fun (_, s) -> s = "error") s1);
  List.iter
    (fun w ->
      check Alcotest.bool
        (Printf.sprintf "workers=%d statuses identical to workers=1" w)
        true
        (statuses w = s1))
    [ 2; 4 ]

(* Per-request budgets ride the request: a starvation-level step budget
   degrades soundly (ok frame, degradation banner) and still renders
   byte-identically to a direct run under the same configuration. *)
let test_per_request_budget_degrades () =
  let line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "tiny"); ("op", Json.Str "analyze");
           ("suite", Json.Str "adm"); ("max_steps", Json.Int 1);
         ])
  in
  let code, responses = run_server [ line ] in
  check Alcotest.int "exit" 0 code;
  match responses with
  | [ r ] ->
    check Alcotest.bool "degraded run still ok" true
      (r.rs_status = Request.Ok_done && r.rs_code = Some 0);
    let out = Option.value ~default:"" r.rs_stdout in
    let contains sub s =
      let n = String.length sub and h = String.length s in
      let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "degradation reported" true (contains "degraded" out);
    let prog = suite_prog "adm" in
    let config = Config.with_budget ~max_steps:1 Config.default in
    let direct = Jobs.analyze ~config ~jobs:1 prog in
    check Alcotest.bool "byte-identical to the direct budgeted run" true
      (r.rs_stdout = Some direct.out)
  | rs -> Alcotest.fail (Printf.sprintf "%d responses for 1 request" (List.length rs))

(* Health frames bypass the queue and carry the ipcp.health/1 document. *)
let test_health_snapshot () =
  let lines =
    [
      Json.to_string (Json.Obj [ ("id", Json.Str "h"); ("op", Json.Str "health") ]);
      analyze_line ~id:"a" ~suite:"adm";
    ]
  in
  let code, responses = run_server lines in
  check Alcotest.int "exit" 0 code;
  match
    List.find_opt (fun (r : Request.response) -> r.rs_id = "h") responses
  with
  | None -> Alcotest.fail "no health response"
  | Some r -> (
    check Alcotest.bool "ok" true (r.rs_status = Request.Ok_done);
    match r.rs_health with
    | Some (Json.Obj fields) ->
      check Alcotest.bool "schema tag" true
        (List.assoc_opt "schema" fields
        = Some (Json.Str Ipcp_telemetry.Telemetry.health_schema_version));
      check Alcotest.bool "gauges present" true
        (List.mem_assoc "gauges" fields);
      check Alcotest.bool "counters present" true
        (List.mem_assoc "counters" fields)
    | _ -> Alcotest.fail "health response carries no document")

(* analyze-delta serves bytes identical to analyze, whatever the session
   state: a cold session (full analysis), a warm re-serve of the same
   source, and a plain analyze must all render the same document. *)
let test_delta_matches_analyze () =
  let lines =
    [
      delta_line ~id:"cold" "adm";
      delta_line ~id:"warm" "adm";
      analyze_line ~id:"plain" ~suite:"adm";
    ]
  in
  let code, responses = run_server lines in
  check Alcotest.int "exit" 0 code;
  check Alcotest.int "three responses" 3 (List.length responses);
  let prog = suite_prog "adm" in
  let direct = Jobs.analyze ~config:Config.default ~jobs:1 prog in
  List.iter
    (fun (r : Request.response) ->
      check Alcotest.bool (r.rs_id ^ " ok") true
        (r.rs_status = Request.Ok_done);
      check Alcotest.bool (r.rs_id ^ " stdout byte-identical") true
        (r.rs_stdout = Some direct.out);
      check Alcotest.bool (r.rs_id ^ " code identical") true
        (r.rs_code = Some direct.code))
    responses

(* A [data] edit outside main, served as analyze-delta: the update must
   serve the new version's constants, not the session's previous ones
   (the pair is Test_incr's). *)
let test_delta_data_edit_outside_main () =
  let dir = tmp_dir "data" in
  let v1 = Filename.concat dir "v1.f" and v2 = Filename.concat dir "v2.f" in
  write_file v1 Test_incr.data_v1_src;
  write_file v2 Test_incr.data_v2_src;
  let line id path =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze-delta");
           ("file", Json.Str path); ("session", Json.Str "d") ])
  in
  let code, responses = run_server [ line "v1" v1; line "v2" v2 ] in
  check Alcotest.int "exit" 0 code;
  let direct =
    match Jobs.load v2 with
    | Ok (_, prog) -> Jobs.analyze ~config:Config.default ~jobs:1 prog
    | Error o -> Alcotest.fail o.Jobs.err
  in
  match responses with
  | [ _; r ] ->
    check Alcotest.string "v2 id" "v2" r.Request.rs_id;
    check Alcotest.bool "v2 stdout byte-identical to analyze" true
      (r.Request.rs_stdout = Some direct.Jobs.out)
  | _ -> Alcotest.fail "expected two responses"

(* The stale-name pair of Test_incr, served as analyze-delta with every
   response certified: the update's frame must name the global as a
   from-scratch analyze does. *)
let test_delta_global_names () =
  let dir = tmp_dir "names" in
  let v1 = Filename.concat dir "g1.f" and v2 = Filename.concat dir "g2.f" in
  write_file v1 Test_incr.stale_name_v1_src;
  write_file v2 Test_incr.stale_name_v2_src;
  let line id path =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze-delta");
           ("file", Json.Str path); ("session", Json.Str "g") ])
  in
  let code, responses =
    run_server
      ~config:{ Server.default_config with certify_sample = 1.0 }
      [ line "g1" v1; line "g2" v2 ]
  in
  check Alcotest.int "exit" 0 code;
  let direct =
    match Jobs.load v2 with
    | Ok (_, prog) -> Jobs.analyze ~config:Config.default ~jobs:1 prog
    | Error o -> Alcotest.fail o.Jobs.err
  in
  match responses with
  | [ _; r ] ->
    check Alcotest.string "g2 id" "g2" r.Request.rs_id;
    check Alcotest.bool "g2 ok" true (r.Request.rs_status = Request.Ok_done);
    check Alcotest.bool "g2 stdout byte-identical to analyze" true
      (r.Request.rs_stdout = Some direct.Jobs.out)
  | _ -> Alcotest.fail "expected two responses"

(* ---- the typed error taxonomy and online certification ---- *)

(* Frame rendering is golden-pinned: one frame per taxonomy class, in
   the fixed key order, byte-for-byte.  Regenerate goldens/frames.txt
   only on a deliberate wire-format change. *)
let taxonomy_frames () =
  [
    Request.response ~id:"ok" ~code:0 ~stdout:"--- CONSTANTS sets\n" ~stderr:""
      Request.Ok_done;
    Request.response ~id:"ok-degraded" ~code:0 ~stdout:"--- degraded\n"
      ~stderr:""
      ~error:
        (Err.budget ~code:"E-BUDGET-STEPS"
           "analysis degraded soundly: step budget exhausted after 1 steps")
      Request.Ok_done;
    Request.response ~id:"crash" ~code:4 ~reason:"Failure(\"boom\")"
      ~error:(Err.worker_crash "Failure(\"boom\")")
      Request.Error_crash;
    Request.response ~id:"cert" ~code:4
      ~reason:"online certification failed; response withheld and input \
               quarantined"
      ~error:
        (Err.certification ~loc:"main:adm.mf:3:1" ~code:"E-CERT-EDGE"
           "binding not below the edge evaluation (1 violation, 120 \
            obligations checked)")
      Request.Certification_failed;
    Request.response ~id:"shed" ~reason:"displaced from a full queue \
                                         (drop-oldest)"
      ~error:(Err.shed "displaced by a newer request under the drop-oldest \
                        policy")
      Request.Shed;
    Request.response ~id:"rej" ~reason:"queue full (reject-new)"
      ~error:
        (Err.rejected "admission queue at capacity under the reject-new \
                       policy")
      Request.Rejected;
    Request.response ~id:"drain" ~reason:"server is draining"
      ~error:(Err.draining "request line read but never admitted before drain")
      Request.Rejected;
    Request.response ~id:"quar" ~reason:"input suite:adm is quarantined"
      ~error:
        (Err.quarantined
           "circuit breaker open for suite:adm after repeated failures")
      Request.Quarantined;
    Request.response ~id:"inv" ~reason:"unknown op \"frobnicate\""
      ~error:(Err.request ~code:"E-REQ-OP" "unknown op \"frobnicate\"")
      Request.Invalid;
  ]

let test_frames_golden () =
  let rendered = List.map Request.response_to_line (taxonomy_frames ()) in
  (* IPCP_WRITE_GOLDEN=<abs path> rewrites the pin (deliberate wire
     changes only); the run still compares, so regenerate-then-rerun *)
  (match Sys.getenv_opt "IPCP_WRITE_GOLDEN" with
  | Some path when path <> "" ->
    write_file path (String.concat "\n" rendered ^ "\n")
  | _ -> ());
  List.iter
    (fun (r : Request.response) ->
      match r.rs_error with
      | Some e ->
        check Alcotest.bool (r.rs_id ^ " well-formed") true (Err.well_formed e)
      | None -> ())
    (taxonomy_frames ());
  let golden_path =
    (* resolve against the test binary so dune runtest (sandboxed cwd)
       and dune exec (source-root cwd) read the same pinned copy *)
    Filename.concat (Filename.dirname Sys.executable_name) "goldens/frames.txt"
  in
  let golden = String.split_on_char '\n' (String.trim (read_file golden_path)) in
  check
    (Alcotest.list Alcotest.string)
    "frame rendering pinned" golden rendered

(* Read one integer out of a post-drain health snapshot file. *)
let health_field path section name =
  match Json.of_string (String.trim (read_file path)) with
  | Error e -> Alcotest.fail ("health snapshot does not parse: " ^ e)
  | Ok doc -> (
    match
      Option.bind (Json.member section doc) (fun s -> Json.member name s)
    with
    | Some (Json.Int v) -> v
    | _ -> Alcotest.fail (Printf.sprintf "no %s.%s in %s" section name path))

(* One session table, two namespaces: analyze-delta requests on one
   session name, alternating between the analyses, each update their own
   analysis's session — two fresh starts, then two updates — and every
   frame is the direct rendering. *)
let test_delta_sessions_per_analysis () =
  let requests =
    [ ("k1", `Const); ("c1", `Copy); ("k2", `Const); ("c2", `Copy) ]
  in
  let line (id, analysis) =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze-delta");
           ("suite", Json.Str "adm"); ("session", Json.Str "s");
           ("analysis", Json.Str (Config.analysis_name analysis)) ])
  in
  let health_path = Filename.concat (tmp_dir "namespaces") "health.json" in
  let config =
    { Server.default_config with workers = 1; health_out = Some health_path }
  in
  let code, responses = run_server ~config (List.map line requests) in
  check Alcotest.int "exit" 0 code;
  let prog = suite_prog "adm" in
  List.iter
    (fun (id, analysis) ->
      let direct =
        Jobs.analyze
          ~config:(Config.with_analysis analysis Config.default)
          ~jobs:1 prog
      in
      match
        List.find_opt (fun (r : Request.response) -> r.rs_id = id) responses
      with
      | None -> Alcotest.fail ("no response for " ^ id)
      | Some r ->
        check Alcotest.bool (id ^ " stdout byte-identical") true
          (r.rs_stdout = Some direct.Jobs.out))
    requests;
  check Alcotest.int "fresh sessions" 2
    (health_field health_path "counters" "serve.delta_fresh");
  check Alcotest.int "session updates" 2
    (health_field health_path "counters" "serve.delta_updates")

(* Half-open breaker: after [breaker_reset_after] denials the next
   request probes; a clean probe closes the breaker and the input serves
   normally again — the regression the quarantine table needs to not
   grow forever. *)
let test_breaker_half_open_probe () =
  (* find a fault seed where requests 0-2 crash at the worker-entry site
     and the probe (seq 6) and the first post-recovery request (seq 7)
     run clean; the site draw is a pure function of (seed, site) so the
     scan replays exactly what the server will do *)
  let rate = 0.11 in
  let seed =
    let rec scan s =
      if s > 50_000 then Alcotest.fail "no suitable fault seed found"
      else begin
        Fault.configure ~raise_rate:rate ~seed:s ();
        let found =
          worker_site_crashes 0 && worker_site_crashes 1
          && worker_site_crashes 2
          && (not (worker_site_crashes 6))
          && not (worker_site_crashes 7)
        in
        Fault.clear ();
        if found then s else scan (s + 1)
      end
    in
    scan 0
  in
  Fault.configure ~raise_rate:rate ~seed ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let n = 8 in
  let lines =
    List.init n (fun i -> analyze_line ~id:(Printf.sprintf "h%d" i) ~suite:"adm")
  in
  let health_path = Filename.concat (tmp_dir "half-open") "health.json" in
  let config =
    { Server.default_config with workers = 1; breaker_threshold = 3;
      breaker_reset_after = 3; health_out = Some health_path }
  in
  let code, responses = run_server ~config lines in
  check Alcotest.int "clean exit" 0 code;
  let statuses =
    List.map
      (fun id ->
        match
          List.find_opt (fun (r : Request.response) -> r.rs_id = id) responses
        with
        | Some r -> Request.status_name r.rs_status
        | None -> "<missing>")
      (List.init n (fun i -> Printf.sprintf "h%d" i))
  in
  check
    (Alcotest.list Alcotest.string)
    "crash, quarantine, probe, recover"
    [ "error"; "error"; "error"; "quarantined"; "quarantined"; "quarantined";
      "ok"; "ok" ]
    statuses;
  (* the successful probe removed the entry: the table cannot leak *)
  check Alcotest.int "breaker table empty after recovery" 0
    (health_field health_path "gauges" "serve.breaker_entries");
  check Alcotest.int "no quarantined inputs left" 0
    (health_field health_path "gauges" "serve.quarantined_inputs")

(* Sampling determinism: which responses the online policy certifies —
   and therefore which corrupted responses are caught at a fractional
   rate — is a pure function of (seed, rate, seq), identical at every
   worker count and predictable from the exposed predicate. *)
let test_certify_sampling_deterministic_across_workers () =
  Fault.configure ~corrupt_rate:1.0 ~seed:3 ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let suites =
    [ "adm"; "doduc"; "fpppp"; "trfd"; "linpackd"; "matrix300"; "mdg";
      "ocean"; "qcd"; "simple" ]
  in
  let lines =
    List.mapi
      (fun i s -> analyze_line ~id:(Printf.sprintf "s%02d" i) ~suite:s)
      suites
  in
  let sample_seed = 11 and rate = 0.5 in
  let expected =
    List.mapi
      (fun seq s ->
        let sampled = Server.certify_sampled ~seed:sample_seed ~rate ~seq in
        let corrupted =
          match Fault.corruption (Server.solution_fault_site seq) with
          | None -> false
          | Some cseed ->
            let prog = suite_prog s in
            Ipcp_certify.Certify.corrupt ~seed:cseed
              (Driver.analyze Config.default prog)
            <> None
        in
        ( Printf.sprintf "s%02d" seq,
          if sampled && corrupted then "certification_failed" else "ok" ))
      suites
  in
  check Alcotest.bool "the sample catches some corruption" true
    (List.exists (fun (_, s) -> s = "certification_failed") expected);
  check Alcotest.bool "the sample leaves some responses unchecked" true
    (List.exists (fun (_, s) -> s = "ok") expected);
  List.iter
    (fun workers ->
      let config =
        { Server.default_config with workers; breaker_threshold = 0;
          certify_sample = rate; seed = sample_seed }
      in
      let _, responses = run_server ~config lines in
      let got =
        List.sort compare
          (List.map
             (fun (r : Request.response) ->
               (r.rs_id, Request.status_name r.rs_status))
             responses)
      in
      check Alcotest.bool
        (Printf.sprintf "workers=%d sampled set matches the predicate" workers)
        true
        (got = List.sort compare expected))
    [ 1; 2; 4 ]

(* A certification failure quarantines the input through the breaker:
   later requests answer [quarantined] without executing, and the
   post-drain health snapshot carries the certify counter triple. *)
let test_certification_failure_quarantines () =
  Fault.configure ~corrupt_rate:1.0 ~seed:5 ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let lines =
    List.init 3 (fun i -> analyze_line ~id:(Printf.sprintf "c%d" i) ~suite:"adm")
  in
  let health_path = Filename.concat (tmp_dir "cert-quar") "health.json" in
  let config =
    { Server.default_config with workers = 1; certify_sample = 1.0;
      health_out = Some health_path }
  in
  let code, responses = run_server ~config lines in
  check Alcotest.int "clean exit" 0 code;
  let statuses =
    List.map
      (fun id ->
        match
          List.find_opt (fun (r : Request.response) -> r.rs_id = id) responses
        with
        | Some r -> Request.status_name r.rs_status
        | None -> "<missing>")
      [ "c0"; "c1"; "c2" ]
  in
  check
    (Alcotest.list Alcotest.string)
    "fail once, then quarantine"
    [ "certification_failed"; "quarantined"; "quarantined" ]
    statuses;
  List.iter
    (fun (r : Request.response) ->
      match (r.rs_status, r.rs_error) with
      | Request.Certification_failed, Some e ->
        check Alcotest.bool (r.rs_id ^ " E-CERT code") true
          (Err.well_formed e && e.Err.e_class = Err.Certification);
        check Alcotest.bool (r.rs_id ^ " no stdout") true (r.rs_stdout = None)
      | Request.Quarantined, Some e ->
        check Alcotest.string (r.rs_id ^ " quarantine code") "E-LOAD-QUARANTINE"
          e.Err.e_code
      | Request.Quarantined, None ->
        Alcotest.fail (r.rs_id ^ " quarantined without a typed error")
      | _ -> ())
    responses;
  check Alcotest.int "certify.sampled" 1
    (health_field health_path "counters" "certify.sampled");
  check Alcotest.int "certify.failed" 1
    (health_field health_path "counters" "certify.failed");
  check Alcotest.int "certify.passed" 0
    (health_field health_path "counters" "certify.passed");
  check Alcotest.int "serve.quarantined" 2
    (health_field health_path "counters" "serve.quarantined")

(* Certification-off serving is byte-unchanged: the same stream with
   sampling at 0 renders exactly the frames of a fully certified run
   that passes (the policy is pay-for-use). *)
let test_certify_off_frames_unchanged () =
  let lines =
    [ analyze_line ~id:"a" ~suite:"adm"; analyze_line ~id:"b" ~suite:"doduc" ]
  in
  let frames config =
    let dir = tmp_dir "off" in
    let in_path = Filename.concat dir "in.jsonl" in
    write_file in_path (String.concat "\n" lines ^ "\n");
    let out_path = Filename.concat dir "out.jsonl" in
    let fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
    let oc = open_out_bin out_path in
    let (_ : int) = Server.run ~config ~input:fd ~output:oc () in
    Unix.close fd;
    close_out oc;
    read_file out_path
  in
  let base = frames Server.default_config in
  let certified =
    frames { Server.default_config with certify_sample = 1.0 }
  in
  check Alcotest.string "certified run byte-identical when everything passes"
    base certified

(* ---- the socket transport and the shard router ---- *)

module Transport = Ipcp_serve.Transport
module Router = Ipcp_serve.Router

let test_transport_parse_addr () =
  check Alcotest.bool "unix: form" true
    (Transport.parse_addr "unix:/run/ipcp.sock"
    = Ok (Transport.Unix_sock "/run/ipcp.sock"));
  check Alcotest.bool "tcp: form" true
    (Transport.parse_addr "tcp:127.0.0.1:7070"
    = Ok (Transport.Tcp ("127.0.0.1", 7070)));
  check Alcotest.bool "tcp: empty host is any" true
    (Transport.parse_addr "tcp::7070" = Ok (Transport.Tcp ("*", 7070)));
  check Alcotest.bool "bare path with a slash is a unix socket" true
    (Transport.parse_addr "/tmp/x.sock"
    = Ok (Transport.Unix_sock "/tmp/x.sock"));
  (match Transport.parse_addr "tcp:host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad TCP port accepted");
  (match Transport.parse_addr "unix:" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty unix path accepted");
  match Transport.parse_addr "sideways" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage address accepted"

let feed_lines f s =
  List.filter_map
    (function Transport.Framing.Line l -> Some l | Oversize -> None)
    (Transport.Framing.feed f s)

let test_framing_reassembles_split_lines () =
  let f = Transport.Framing.create ~max_line:1024 in
  check (Alcotest.list Alcotest.string) "batch of two" [ "alpha"; "beta" ]
    (feed_lines f "alpha\nbeta\n");
  check (Alcotest.list Alcotest.string) "first half buffers" []
    (feed_lines f "gam");
  check Alcotest.bool "partial flagged" true (Transport.Framing.partial f);
  check (Alcotest.list Alcotest.string) "completion flushes in order"
    [ "gamma"; "delta" ]
    (feed_lines f "ma\ndelta\nepsi");
  check Alcotest.bool "trailing partial survives to finish" true
    (Transport.Framing.finish f = Some "epsi");
  check Alcotest.bool "finish resets the buffer" true
    (Transport.Framing.finish f = None);
  (* [feed]'s events for [s] cut into reads of [piece] bytes *)
  let feed_pieces f piece s =
    List.concat_map
      (fun i ->
        Transport.Framing.feed f
          (String.sub s (i * piece) (min piece (String.length s - (i * piece)))))
      (List.init ((String.length s + piece - 1) / piece) Fun.id)
  in
  let event ppf = function
    | Transport.Framing.Line l -> Fmt.pf ppf "Line (%d bytes)" (String.length l)
    | Oversize -> Fmt.string ppf "Oversize"
  in
  let events = Alcotest.testable (Fmt.Dump.list event) ( = ) in
  let mib = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
  check events "a 1 MiB line in 4096-byte reads"
    [ Transport.Framing.Line mib ]
    (feed_pieces (Transport.Framing.create ~max_line:(1 lsl 20)) 4096
       (mib ^ "\n"));
  (* the cap counts the line's bytes, not the reads': a line of max_line
     bytes passes, one more byte is over, the newline in either read *)
  let at_cap = String.make 1024 'x' in
  List.iter
    (fun piece ->
      check events
        (Printf.sprintf "max_line bytes in %d-byte reads" piece)
        [ Transport.Framing.Line at_cap ]
        (feed_pieces (Transport.Framing.create ~max_line:1024) piece
           (at_cap ^ "\n"));
      check events
        (Printf.sprintf "max_line + 1 bytes in %d-byte reads" piece)
        [ Transport.Framing.Oversize ]
        (feed_pieces (Transport.Framing.create ~max_line:1024) piece
           (at_cap ^ "x\n")))
    [ 1000; 1024; 1025 ]

let test_framing_poisons_oversize () =
  let f = Transport.Framing.create ~max_line:8 in
  (match Transport.Framing.feed f (String.make 32 'x') with
  | [ Transport.Framing.Oversize ] -> ()
  | _ -> Alcotest.fail "expected exactly one oversize event");
  (* terminal: the framer never yields again, even for valid lines *)
  check Alcotest.int "poisoned framer stays silent" 0
    (List.length (Transport.Framing.feed f "ok\nok\n"));
  check Alcotest.bool "no trailing partial after poisoning" true
    (Transport.Framing.finish f = None);
  check Alcotest.bool "no deadline armed after poisoning" true
    (not (Transport.Framing.partial f));
  (* the cap measures one line, not the connection: many short lines
     whose total far exceeds it all pass *)
  let f = Transport.Framing.create ~max_line:8 in
  let many = String.concat "" (List.init 64 (fun i -> Printf.sprintf "l%d\n" i)) in
  check Alcotest.int "64 short lines pass an 8-byte cap" 64
    (List.length (feed_lines f many))

let test_ring_covers_and_is_deterministic () =
  List.iter
    (fun slots ->
      let ring = Router.Ring.make ~slots in
      let again = Router.Ring.make ~slots in
      List.iter
        (fun key ->
          let owner = Router.Ring.lookup ring key in
          check Alcotest.bool "owner in range" true
            (owner >= 0 && owner < slots);
          check Alcotest.int "lookup deterministic across ring builds" owner
            (Router.Ring.lookup again key);
          let order = Router.Ring.order_from ring key in
          check Alcotest.int "failover order has every slot" slots
            (List.length (List.sort_uniq compare order));
          check Alcotest.int "failover order has no repeats" slots
            (List.length order);
          match order with
          | first :: _ ->
            check Alcotest.int "failover order starts at the owner" owner first
          | [] -> Alcotest.fail "empty failover order")
        [ "prog:a"; "prog:b"; "session:const:s1"; "op:tables"; "" ])
    [ 1; 2; 4; 7 ]

let test_ring_rebalance_is_partial () =
  (* the consistent-hashing point: adding a shard re-homes only the keys
     the new slot's vnodes capture, not the whole keyspace *)
  let keys = List.init 200 (fun i -> Printf.sprintf "prog:%d" i) in
  let r4 = Router.Ring.make ~slots:4 in
  let r5 = Router.Ring.make ~slots:5 in
  let moved =
    List.length
      (List.filter
         (fun k -> Router.Ring.lookup r4 k <> Router.Ring.lookup r5 k)
         keys)
  in
  check Alcotest.bool "the new slot captures some keys" true (moved > 0);
  check Alcotest.bool
    (Printf.sprintf "most keys stay put (%d/200 moved)" moved)
    true (moved < 100)

let req_of line =
  match Request.of_line line with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request did not parse: " ^ e.Request.pe_reason)

let test_route_key_content_affinity () =
  let k l = Router.route_key (req_of l) in
  (* same program under different ids and configurations lands on one
     shard *)
  check Alcotest.string "id and configuration do not affect the key"
    (k {|{"id":"a","op":"analyze","suite":"adm"}|})
    (k {|{"id":"b","op":"analyze","suite":"adm","jf":"literal","certify":true}|});
  check Alcotest.string "certify co-locates with analyze"
    (k {|{"id":"a","op":"analyze","suite":"adm"}|})
    (k {|{"id":"c","op":"certify","suite":"adm"}|});
  check Alcotest.bool "different programs hash apart" true
    (k {|{"id":"a","op":"analyze","suite":"adm"}|}
    <> k {|{"id":"a","op":"analyze","suite":"doduc"}|});
  (* content-addressed: a file holding a suite program's exact source
     keys identically to the suite request *)
  let dir = tmp_dir "route-key" in
  let path = Filename.concat dir "adm-copy.mf" in
  (match Registry.find "adm" with
  | Some e -> write_file path e.source
  | None -> Alcotest.fail "no adm suite entry");
  check Alcotest.string "file content keys like the identical suite source"
    (k {|{"id":"a","op":"analyze","suite":"adm"}|})
    (k
       (Json.to_string
          (Json.Obj
             [ ("id", Json.Str "f"); ("op", Json.Str "analyze");
               ("file", Json.Str path) ])));
  (* analyze-delta routes by session, not content: the pinned session
     state is what the request must reach *)
  check Alcotest.string "delta keys by session name"
    (k {|{"id":"a","op":"analyze-delta","suite":"adm","session":"s1"}|})
    (k {|{"id":"b","op":"analyze-delta","suite":"doduc","session":"s1"}|});
  check Alcotest.bool "distinct sessions hash apart" true
    (k {|{"id":"a","op":"analyze-delta","suite":"adm","session":"s1"}|}
    <> k {|{"id":"a","op":"analyze-delta","suite":"adm","session":"s2"}|})

(* ---- gray-failure tolerance ---- *)

(* The wire op behind the router's heartbeats: parses, refuses a
   target, and answers [ok] through a full server run. *)
let test_ping_request () =
  (match Request.of_line {|{"id":"p1","op":"ping"}|} with
  | Ok r -> check Alcotest.bool "op" true (r.rq_op = Request.Ping)
  | Error e -> Alcotest.fail ("ping should parse: " ^ e.Request.pe_reason));
  (match Request.of_line {|{"id":"p2","op":"ping","suite":"adm"}|} with
  | Ok _ -> Alcotest.fail "ping with a target accepted"
  | Error _ -> ());
  let code, responses =
    run_server [ {|{"id":"p","op":"ping"}|}; analyze_line ~id:"a" ~suite:"adm" ]
  in
  check Alcotest.int "clean exit" 0 code;
  check Alcotest.int "both answered" 2 (List.length responses);
  match
    List.find_opt (fun (r : Request.response) -> r.rs_id = "p") responses
  with
  | Some r -> check Alcotest.bool "pong is ok" true (r.rs_status = Request.Ok_done)
  | None -> Alcotest.fail "no pong"

(* Satellite: response frames survive short/partial socket writes.  A
   socketpair with a tiny send buffer forces the kernel to accept
   frames in pieces; the outbuf must deliver every byte in order once
   the reader drains, and report a clean [`Ok]. *)
let test_outbuf_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let ob = Transport.Outbuf.create a in
  let frame i = Printf.sprintf "frame-%04d-%s\n" i (String.make 2000 'x') in
  let n_frames = 64 in
  let buffered = ref false in
  for i = 0 to n_frames - 1 do
    match Transport.Outbuf.write ob (frame i) with
    | `Ok -> ()
    | `Buffered -> buffered := true
    | `Dead -> Alcotest.fail "peer declared dead under backpressure"
  done;
  check Alcotest.bool "the kernel pushed back at least once" true !buffered;
  (* drain reader-side while servicing the tail, as the select loop
     would on writability *)
  let got = Buffer.create (n_frames * 2048) in
  let chunk = Bytes.create 8192 in
  let expected = String.concat "" (List.init n_frames frame) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Buffer.length got < String.length expected
    && Unix.gettimeofday () < deadline
  do
    (match Transport.Outbuf.service ob with
    | `Ok | `Buffered -> ()
    | `Dead -> Alcotest.fail "peer declared dead while draining");
    match Unix.select [ b ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      let n = Unix.read b chunk 0 (Bytes.length chunk) in
      Buffer.add_subbytes got chunk 0 n
  done;
  check Alcotest.bool "tail fully flushed" false (Transport.Outbuf.pending ob);
  check Alcotest.bool "peer still believed alive" false
    (Transport.Outbuf.dead ob);
  check Alcotest.string "every frame arrived whole and in order" expected
    (Buffer.contents got);
  Unix.close a;
  Unix.close b

(* A peer that stops reading forever must latch [`Dead] at the tail
   cap instead of buffering without bound. *)
let test_outbuf_dead_peer_latches () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let ob = Transport.Outbuf.create ~cap:65536 a in
  let frame = String.make 8192 'y' in
  let rec push n =
    if n = 0 then Alcotest.fail "cap never latched"
    else
      match Transport.Outbuf.write ob frame with
      | `Ok | `Buffered -> push (n - 1)
      | `Dead -> ()
  in
  push 64;
  check Alcotest.bool "dead latched" true (Transport.Outbuf.dead ob);
  check Alcotest.bool "no pending tail once dead" false
    (Transport.Outbuf.pending ob);
  check Alcotest.bool "writes after death stay dead" true
    (Transport.Outbuf.write ob "more" = `Dead);
  Unix.close a;
  Unix.close b

(* Drive [Server.run_listen] in a domain over a real unix socket: one
   client writes [lines], half-closes, and reads until the server closes
   the connection (every owed frame written); SIGTERM then stops the
   listener.  Returns the exit code and the frames in arrival order. *)
let run_listener ?config lines =
  let addr =
    Transport.Unix_sock (Filename.concat (tmp_dir "listen") "s.sock")
  in
  let srv = Domain.spawn (fun () -> Server.run_listen ?config ~addr ()) in
  let rec connect_retry tries =
    match Transport.connect addr with
    | fd -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.02;
      connect_retry (tries - 1)
  in
  let fd = connect_retry 250 in
  let b = Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines)) in
  let pos = ref 0 in
  while !pos < Bytes.length b do
    match Unix.write fd b !pos (Bytes.length b - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let got = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | 0 -> ()
    | n ->
      Buffer.add_subbytes got chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close fd;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let code = Domain.join srv in
  ( code,
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          match Request.response_of_line l with
          | Ok r -> Some r
          | Error e -> Alcotest.fail (Printf.sprintf "bad frame %S: %s" l e))
      (String.split_on_char '\n' (Buffer.contents got)) )

(* The socket twin of the stdio burst: a socket connection sheds, so the
   same burst into a 2-slot queue is answered [rejected] (reject-new) or
   [shed] (drop-oldest) at least once — still one frame per line. *)
let test_socket_conservation_under_shedding () =
  check_burst_conservation ~run:run_listener
    ~allowed:
      [ Request.Ok_done; Request.Shed; Request.Rejected; Request.Invalid ]
    ~check_statuses:(fun policy statuses ->
      let expected =
        if policy = Bqueue.Reject_new then Request.Rejected else Request.Shed
      in
      check Alcotest.bool
        (Request.status_name expected ^ " at least once")
        true
        (List.mem expected statuses))

(* --max-line on stdio: an oversize line gets one invalid
   [E-REQ-OVERSIZE] frame, and the framer reads nothing after it — for
   stdio that is the end of input, so the server exits cleanly. *)
let test_stdio_oversize_line () =
  let code, responses =
    run_server
      [ {|{"id":"p","op":"ping"}|}; String.make (2 lsl 20) 'x';
        analyze_line ~id:"after" ~suite:"adm" ]
  in
  check Alcotest.int "clean exit" 0 code;
  match responses with
  | [ pong; refusal ] ->
    check Alcotest.string "the line before is served" "p" pong.rs_id;
    check Alcotest.bool "refused as invalid" true
      (refusal.rs_status = Request.Invalid);
    check (Alcotest.option Alcotest.string) "typed oversize"
      (Some "E-REQ-OVERSIZE")
      (Option.map (fun (e : Err.t) -> e.e_code) refusal.rs_error)
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected a pong and one refusal, got %d frames"
         (List.length rs))

(* Satellite: an EINTR storm (a repeating no-op SIGALRM) must not lose
   or double-answer a single request, on stdio or on a socket.  This is
   the in-process half of the coverage; tools/fuzz --serve-gray runs
   the same storm against real subprocesses. *)
let test_eintr_storm_conservation () =
  let old_handler =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
  in
  let period = 0.002 in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period });
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm old_handler)
    (fun () ->
      (* stdio server under the storm *)
      let ids = List.init 12 (fun i -> Printf.sprintf "e%02d" i) in
      let lines =
        List.map (fun id -> analyze_line ~id ~suite:"adm") ids
      in
      let config = { Server.default_config with workers = 2 } in
      let code, responses = run_server ~config lines in
      check Alcotest.int "stdio: clean exit under storm" 0 code;
      List.iter
        (fun id ->
          check Alcotest.int (id ^ " answered exactly once") 1
            (List.length
               (List.filter
                  (fun (r : Request.response) -> r.rs_id = id)
                  responses)))
        ids;
      (* socket server under the storm *)
      let n_req = 20 in
      let code, frames =
        run_listener
          (List.init n_req (fun i -> Printf.sprintf {|{"id":"s%02d","op":"ping"}|} i))
      in
      check Alcotest.int "socket: one frame per request under storm" n_req
        (List.length frames);
      List.iteri
        (fun i (r : Request.response) ->
          check Alcotest.string
            (Printf.sprintf "socket frame %d id" i)
            (Printf.sprintf "s%02d" i) r.rs_id)
        frames;
      check Alcotest.int "listener: clean exit under storm" 0 code)

let suite =
  [
    ("serve request parsing", `Quick, test_request_parse);
    ("serve response round-trip", `Quick, test_response_round_trip);
    ("serve bqueue reject-new", `Quick, test_bqueue_reject_new);
    ("serve bqueue drop-oldest", `Quick, test_bqueue_drop_oldest);
    ("serve bqueue policy names", `Quick, test_bqueue_policy_names);
    ("serve conservation under shedding", `Slow,
     test_conservation_under_shedding);
    ("serve conservation of coded invalids", `Quick,
     test_conservation_of_coded_invalids);
    ("serve analysis dispatch", `Quick, test_serve_analysis_dispatch);
    ("serve matches direct rendering", `Quick, test_server_matches_direct);
    ("serve fault containment", `Quick, test_fault_containment);
    ("serve fault rate fells exactly the predicted requests", `Quick,
     test_fault_rate_fells_predicted_requests);
    ("serve breaker quarantines crashing input", `Quick,
     test_breaker_quarantines_crashing_input);
    ("serve fault statuses deterministic across workers", `Slow,
     test_fault_statuses_deterministic_across_workers);
    ("serve per-request budget degrades", `Quick,
     test_per_request_budget_degrades);
    ("serve health snapshot", `Quick, test_health_snapshot);
    ("serve analyze-delta matches analyze", `Quick,
     test_delta_matches_analyze);
    ("serve analyze-delta after a data edit outside main", `Quick,
     test_delta_data_edit_outside_main);
    ("serve analyze-delta names globals as the new version does", `Quick,
     test_delta_global_names);
    ("serve frame taxonomy golden", `Quick, test_frames_golden);
    ("serve breaker half-open probe", `Quick, test_breaker_half_open_probe);
    ("serve certify sampling deterministic", `Slow,
     test_certify_sampling_deterministic_across_workers);
    ("serve certification failure quarantines", `Quick,
     test_certification_failure_quarantines);
    ("serve certify-off frames unchanged", `Quick,
     test_certify_off_frames_unchanged);
    ("serve transport address parsing", `Quick, test_transport_parse_addr);
    ("serve framing reassembles split lines", `Quick,
     test_framing_reassembles_split_lines);
    ("serve framing poisons oversize lines", `Quick,
     test_framing_poisons_oversize);
    ("serve ring covers and is deterministic", `Quick,
     test_ring_covers_and_is_deterministic);
    ("serve ring rebalance is partial", `Quick, test_ring_rebalance_is_partial);
    ("serve route key content affinity", `Quick,
     test_route_key_content_affinity);
    ("serve ping request", `Quick, test_ping_request);
    ("serve outbuf survives short writes", `Quick, test_outbuf_short_writes);
    ("serve outbuf latches dead peer", `Quick, test_outbuf_dead_peer_latches);
    ("serve EINTR storm conservation", `Slow, test_eintr_storm_conservation);
    ("serve socket conservation under shedding", `Slow,
     test_socket_conservation_under_shedding);
    ("serve stdio refuses an oversize line", `Quick, test_stdio_oversize_line);
    ("serve analyze-delta sessions per analysis", `Quick,
     test_delta_sessions_per_analysis);
  ]
