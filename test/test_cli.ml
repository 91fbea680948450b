(* Integration tests that drive the real ipcp binary end to end: generate a
   program, run it, analyze it, substitute, lint, and print the tables.

   The binary path arrives via the IPCP_BIN environment variable, set in
   test/dune so dune builds the executable and sandboxes it with the test. *)

let check = Alcotest.check
let fail = Alcotest.fail

let bin () =
  match Sys.getenv_opt "IPCP_BIN" with
  | Some p when Sys.file_exists p -> p
  | _ -> fail "IPCP_BIN not set; run via dune"

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* Run the binary with stdout and stderr captured separately:
   (exit code, stdout lines, stderr lines). *)
let run_cli_full args =
  let out = Filename.temp_file "ipcp_test" ".out" in
  let err = Filename.temp_file "ipcp_test" ".err" in
  let cmd =
    Fmt.str "%s %s > %s 2> %s" (Filename.quote (bin ()))
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout_lines = read_lines out and stderr_lines = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_lines, stderr_lines)

(* Run the binary; return (exit code, merged stdout+stderr lines). *)
let run_cli args =
  let out = Filename.temp_file "ipcp_test" ".out" in
  let cmd =
    Fmt.str "%s %s > %s 2>&1" (Filename.quote (bin ()))
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let lines = read_lines out in
  Sys.remove out;
  (code, lines)

let write_temp src =
  let path = Filename.temp_file "ipcp_test" ".f" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  path

let sample =
  "program main\n\
   integer n\n\
   n = 6\n\
   call work(n)\n\
   end\n\
   subroutine work(k)\n\
   integer k\n\
   print *, k, k * 7\n\
   end\n"

let contains needle haystack =
  List.exists
    (fun line ->
      let n = String.length needle in
      let rec go i =
        i + n <= String.length line && (String.sub line i n = needle || go (i + 1))
      in
      n = 0 || go 0)
    haystack

let test_run () =
  let f = write_temp sample in
  let code, out = run_cli [ "run"; f ] in
  Sys.remove f;
  check Alcotest.int "exit 0" 0 code;
  check (Alcotest.list Alcotest.string) "output" [ "6 42" ] out

let test_analyze_reports_constants () =
  let f = write_temp sample in
  let code, out = run_cli [ "analyze"; f; "-j"; "passthrough" ] in
  Sys.remove f;
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "reports work.k" true (contains "work: k=6" out)

let test_analyze_substitute_roundtrip () =
  let f = write_temp sample in
  let out_f = Filename.temp_file "ipcp_test" ".f" in
  let code, _ = run_cli [ "analyze"; f; "--substitute"; out_f ] in
  check Alcotest.int "exit 0" 0 code;
  (* the substituted file must run and print the same output *)
  let code2, out2 = run_cli [ "run"; out_f ] in
  Sys.remove f;
  Sys.remove out_f;
  check Alcotest.int "substituted runs" 0 code2;
  check (Alcotest.list Alcotest.string) "same output" [ "6 42" ] out2

let test_lint_clean_and_dirty () =
  let clean = write_temp sample in
  let code, _ = run_cli [ "lint"; clean ] in
  Sys.remove clean;
  check Alcotest.int "clean exits 0" 0 code;
  let dirty =
    write_temp
      "program main\ninteger n\nn = 1\ncall s(n, n)\nend\nsubroutine s(a, \
       b)\ninteger a, b\na = b + 1\nend\n"
  in
  let code2, out2 = run_cli [ "lint"; dirty ] in
  Sys.remove dirty;
  check Alcotest.int "dirty exits 3" 3 code2;
  check Alcotest.bool "names the violation" true (contains "positions" out2)

let test_generate_then_run () =
  let code, out = run_cli [ "generate"; "--seed"; "11"; "--procs"; "4" ] in
  check Alcotest.int "generate exits 0" 0 code;
  let f = write_temp (String.concat "\n" out ^ "\n") in
  let code2, _ = run_cli [ "run"; f ] in
  Sys.remove f;
  check Alcotest.int "generated program runs" 0 code2

let test_tables () =
  let code, out = run_cli [ "tables" ] in
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "table 2 header" true
    (contains "Table 2: constants found through use of jump functions" out);
  check Alcotest.bool "all programs present" true
    (List.for_all (fun p -> contains p out) Ipcp_suite.Registry.names)

let test_tables_copy_analysis () =
  let code, out = run_cli [ "tables"; "--analysis"; "copy" ] in
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "subsumption table rendered" true
    (contains "Table 4: copy propagation subsumes constant propagation" out);
  check Alcotest.bool "every program subsumes" true
    (not (contains "NO" out))

let test_bad_analysis_usage_exit_code () =
  let code, _, stderr_l =
    run_cli_full [ "tables"; "--analysis"; "bogus" ]
  in
  check Alcotest.int "unknown analysis exits 2" 2 code;
  check Alcotest.bool "usage hint on stderr" true
    (contains "either 'const' or 'copy'" stderr_l
    || contains "Usage" stderr_l)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The report on a generated 200-procedure program, pinned byte for
   byte: a faster frontend, IR or SCCP must not change what analyze
   prints. *)
let test_analyze_gen200_golden () =
  let src = Filename.temp_file "ipcp_test" ".f" in
  let out = Filename.temp_file "ipcp_test" ".out" in
  let sh args = Sys.command (Fmt.str "%s %s" (Filename.quote (bin ())) args) in
  let gen =
    sh (Fmt.str "generate --seed 42 --procs 200 --stmts 10 > %s" (Filename.quote src))
  in
  let code = sh (Fmt.str "analyze %s > %s" (Filename.quote src) (Filename.quote out)) in
  let report = read_file out in
  Sys.remove src;
  Sys.remove out;
  check Alcotest.int "generate exits 0" 0 gen;
  check Alcotest.int "analyze exits 0" 0 code;
  check Alcotest.string "analyze report pinned"
    (read_file
       (Filename.concat
          (Filename.dirname Sys.executable_name)
          "goldens/analyze_gen200.txt"))
    report

let test_profile_json () =
  let open Ipcp_telemetry in
  let f = write_temp sample in
  let json_f = Filename.temp_file "ipcp_test" ".json" in
  let code, out = run_cli [ "analyze"; f; "--profile-json"; json_f ] in
  Sys.remove f;
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "analysis output still present" true
    (contains "work: k=6" out);
  let doc =
    match Json.of_string (read_file json_f) with
    | Ok doc -> doc
    | Error m -> fail ("profile document does not parse: " ^ m)
  in
  Sys.remove json_f;
  check
    (Alcotest.option Alcotest.string)
    "schema tag" (Some Telemetry.schema_version)
    (Option.bind (Json.member "schema" doc) Json.to_string_opt);
  (* the four pipeline stages all appear in the span tree *)
  let rec span_names j =
    match j with
    | Json.Obj _ ->
      let name =
        Option.bind (Json.member "name" j) Json.to_string_opt
        |> Option.to_list
      in
      let children =
        Option.bind (Json.member "children" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      name @ List.concat_map span_names children
    | _ -> []
  in
  let names =
    Option.bind (Json.member "spans" doc) Json.to_list_opt
    |> Option.value ~default:[]
    |> List.concat_map span_names
  in
  List.iter
    (fun stage ->
      check Alcotest.bool (stage ^ " span present") true (List.mem stage names))
    [
      "stage1:return_jfs"; "stage2:forward_jfs"; "stage3:propagate";
      "stage4:record";
    ];
  check Alcotest.bool "solver counters present" true
    (Json.path [ "counters"; "solver.worklist.pops" ] doc <> None)

let test_tables_profile_stdout_identical () =
  let code, plain = run_cli [ "characteristics" ] in
  check Alcotest.int "exit 0" 0 code;
  (* --profile reports on stderr only: stdout must stay byte-identical
     (run_cli merges stderr, so route it away with --profile-json too) *)
  let json_f = Filename.temp_file "ipcp_test" ".json" in
  let code2, profiled = run_cli [ "characteristics"; "--profile-json"; json_f ] in
  Sys.remove json_f;
  check Alcotest.int "exit 0 with profile" 0 code2;
  check (Alcotest.list Alcotest.string) "stdout identical" plain profiled

(* ---- malformed-input paths: exit codes and stderr content ---- *)

let test_syntax_error_exit_code () =
  let f = write_temp "program main\nif (x then\nend\n" in
  let code, stdout_l, stderr_l = run_cli_full [ "analyze"; f ] in
  Sys.remove f;
  check Alcotest.int "input error exits 3" 3 code;
  check (Alcotest.list Alcotest.string) "stdout untouched" [] stdout_l;
  check Alcotest.bool "diagnostic on stderr" true
    (contains "error[E-PARSE]" stderr_l);
  check Alcotest.bool "summary line" true (contains "error(s)" stderr_l)

(* Golden stderr: the parse diagnostic format is file:line:col:
   severity[CODE]: message, followed by a count summary. *)
let test_parse_error_stderr_golden () =
  let f = write_temp "program main\ninteger x\nx = )\nend\n" in
  let code, _, stderr_l = run_cli_full [ "analyze"; f ] in
  check Alcotest.int "exit 3" 3 code;
  check (Alcotest.list Alcotest.string) "golden stderr"
    [
      f ^ ":3:5: error[E-PARSE]: expected an expression but found )";
      "1 error(s)";
    ]
    stderr_l;
  Sys.remove f

(* One run must surface every independent problem, not stop at the
   first: two expression errors and an unknown callee here. *)
let test_multi_error_diagnostics () =
  let f =
    write_temp
      "program main\ninteger x\nx = )\nx = 3 +\ncall nosuch(1)\nend\n"
  in
  let code, _, stderr_l = run_cli_full [ "analyze"; f ] in
  Sys.remove f;
  check Alcotest.int "exit 3" 3 code;
  let diags =
    List.filter
      (fun l ->
        let has needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length l
            && (String.sub l i n = needle || go (i + 1))
          in
          go 0
        in
        has "error[E-")
      stderr_l
  in
  check Alcotest.bool "at least 3 independent diagnostics" true
    (List.length diags >= 3);
  check Alcotest.bool "parse errors located" true
    (contains ":3:5: error[E-PARSE]" stderr_l);
  check Alcotest.bool "semantic error reported too" true
    (contains "error[E-SEMA]: unknown subroutine nosuch" stderr_l)

let test_unknown_flag_usage_exit_code () =
  let code, _, stderr_l = run_cli_full [ "analyze"; "--no-such-flag"; "x.f" ] in
  check Alcotest.int "usage error exits 2" 2 code;
  check Alcotest.bool "usage hint on stderr" true (contains "Usage" stderr_l)

let test_missing_file_exit_code () =
  let code, _, stderr_l =
    run_cli_full [ "analyze"; "definitely-not-here.f" ]
  in
  check Alcotest.int "missing file is an input error (3)" 3 code;
  check Alcotest.bool "names the file" true
    (contains "definitely-not-here.f" stderr_l)

let test_runtime_error_exit_code () =
  let f = write_temp "program main\ninteger n\nn = 0\nprint *, 1 / n\nend\n" in
  let code, _, stderr_l = run_cli_full [ "run"; f ] in
  Sys.remove f;
  check Alcotest.int "runtime error exits 3" 3 code;
  check Alcotest.bool "reported on stderr" true
    (contains "runtime error" stderr_l)

let test_out_of_fuel_message () =
  let f =
    write_temp
      "program main\ninteger i\ni = 0\ndo while (i .lt. 10)\ni = i - 1\nend \
       do\nprint *, i\nend\n"
  in
  let code, _, stderr_l = run_cli_full [ "run"; "--fuel"; "500"; f ] in
  Sys.remove f;
  check Alcotest.int "fuel exhaustion exits 3" 3 code;
  check Alcotest.bool "distinct out-of-fuel message" true
    (contains "ran out of fuel" stderr_l);
  check Alcotest.bool "mentions --fuel" true (contains "--fuel" stderr_l)

(* A generously budgeted analysis prints exactly what an unbudgeted one
   does — no degradation notes, same constants. *)
let test_generous_budget_identical () =
  let f = write_temp sample in
  let _, plain = run_cli [ "analyze"; f ] in
  let code, budgeted =
    run_cli [ "analyze"; "--max-steps"; "1000000"; f ]
  in
  Sys.remove f;
  check Alcotest.int "exit 0" 0 code;
  (* the configuration banner differs (it names the budget); everything
     else must be byte-identical *)
  let strip = List.filter (fun l -> not (contains "configuration" [ l ])) in
  check (Alcotest.list Alcotest.string) "same analysis output" (strip plain)
    (strip budgeted)

let test_tiny_budget_degrades_soundly () =
  let f = write_temp sample in
  let code, out = run_cli [ "analyze"; "--max-steps"; "1"; f ] in
  Sys.remove f;
  check Alcotest.int "degraded analysis still exits 0" 0 code;
  check Alcotest.bool "degradation reported" true (contains "degraded" out);
  check Alcotest.bool "no constant claimed for work.k" false
    (contains "work: k=6" out)

(* [analyze --complete --against PREV] continues complete propagation's
   rounds from the incremental session, so it prints what a fresh
   [analyze --complete] prints: against the same version, and against
   one whose first [= 0] assignment reads [= 1], a flag that decides
   which branches die. *)
let test_complete_against () =
  List.iter
    (fun name ->
      let src = (Option.get (Ipcp_suite.Registry.find name)).source in
      let edited = ref false in
      let edited_src =
        String.split_on_char '\n' src
        |> List.map (fun l ->
               if (not !edited) && String.ends_with ~suffix:" = 0" l then begin
                 edited := true;
                 String.sub l 0 (String.length l - 1) ^ "1"
               end
               else l)
        |> String.concat "\n"
      in
      check Alcotest.bool (name ^ ": edited") true !edited;
      let prev = write_temp src and next = write_temp edited_src in
      List.iter
        (fun (label, file) ->
          let _, fresh, _ = run_cli_full [ "analyze"; "--complete"; file ] in
          let code, incremental, _ =
            run_cli_full [ "analyze"; "--complete"; "--against"; prev; file ]
          in
          check Alcotest.int (Fmt.str "%s %s: exit 0" name label) 0 code;
          check
            (Alcotest.list Alcotest.string)
            (Fmt.str "%s %s: same report as a fresh --complete" name label)
            fresh incremental)
        [ ("against itself", prev); ("against an edit", next) ];
      Sys.remove prev;
      Sys.remove next)
    [ "ocean"; "spec77" ]

(* A reader that disappears mid-stream must not kill the process with
   SIGPIPE: `ipcp tables | head` exits with the documented I/O exit
   code 3, never with a signal.  `false` closes stdin immediately, so
   the pipe breaks on the very first flush regardless of output size. *)
let test_broken_output_pipe_exits_3 () =
  (* the pipeline's own status is `false`'s; ipcp's arrives via PIPESTATUS *)
  let probe =
    Fmt.str "bash -c %s"
      (Filename.quote
         (Fmt.str "%s tables 2>/dev/null | false; echo ${PIPESTATUS[0]}"
            (Filename.quote (bin ()))))
  in
  let out = Filename.temp_file "ipcp_test" ".out" in
  let code = Sys.command (Fmt.str "%s > %s" probe (Filename.quote out)) in
  let lines = read_lines out in
  Sys.remove out;
  check Alcotest.int "probe shell itself succeeded" 0 code;
  match lines with
  | [ status ] ->
    check Alcotest.string "broken pipe exits 3, not a signal death" "3" status
  | _ -> fail "expected exactly the PIPESTATUS line"

(* [ipcp route] caps stdin lines with serve's default cap and forwards
   every line it admits: a line exactly at the cap is served as [ipcp
   serve] serves it, although the router's id rewrite lengthens it past
   the cap, and a line over the cap gets serve's [E-REQ-OVERSIZE]
   refusal.  No shard is lost for either. *)
let test_route_line_cap () =
  let open Ipcp_telemetry in
  let cap = 1 lsl 20 in
  let request ~id bytes =
    let head = Fmt.str {|{"id":"%s","op":"analyze","suite":"adm","pad":"|} id in
    head ^ String.make (bytes - String.length head - 2) 'x' ^ {|"}|}
  in
  (* (exit code, stdout lines) of [ipcp ARGS] reading [line] on stdin *)
  let run_stdin args line =
    let input = write_temp (line ^ "\n") in
    let out = Filename.temp_file "ipcp_test" ".out" in
    let code =
      Sys.command
        (Fmt.str "%s %s < %s > %s 2>/dev/null" (Filename.quote (bin ()))
           (String.concat " " (List.map Filename.quote args))
           (Filename.quote input) (Filename.quote out))
    in
    let lines = read_lines out in
    Sys.remove input;
    Sys.remove out;
    (code, lines)
  in
  let route line =
    let health = Filename.temp_file "ipcp_test" ".health" in
    let code, lines =
      run_stdin [ "route"; "--shards"; "2"; "--health-out"; health ] line
    in
    let doc =
      match Json.of_string (String.trim (read_file health)) with
      | Ok doc -> doc
      | Error e -> fail ("route health does not parse: " ^ e)
    in
    Sys.remove health;
    List.iter
      (fun name ->
        check (Alcotest.option Alcotest.int) name (Some 0)
          (Option.bind (Json.path [ "counters"; name ] doc) Json.to_int_opt))
      [ "router.shard_restarts"; "router.lost" ];
    (code, lines)
  in
  let at_cap = request ~id:"a" cap in
  check Alcotest.int "line at the cap" cap (String.length at_cap);
  let serve_code, serve_out = run_stdin [ "serve" ] at_cap in
  let route_code, route_out = route at_cap in
  check Alcotest.int "serve exit" 0 serve_code;
  check Alcotest.int "route exit" 0 route_code;
  check (Alcotest.list Alcotest.string) "route answers a line at the cap as serve"
    (List.sort compare serve_out) (List.sort compare route_out);
  let status_and_code lines =
    List.map
      (fun l ->
        match Ipcp_serve.Request.response_of_line l with
        | Ok r ->
          ( Ipcp_serve.Request.status_name r.rs_status,
            Option.fold ~none:"" ~some:(fun e -> e.Ipcp_serve.Err.e_code)
              r.rs_error )
        | Error e -> fail (Fmt.str "bad frame %S: %s" l e))
      lines
  in
  let over_cap = request ~id:"b" (cap + 100) in
  let _, serve_out = run_stdin [ "serve" ] over_cap in
  let _, route_out = route over_cap in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "serve refuses a line over the cap"
    [ ("invalid", "E-REQ-OVERSIZE") ]
    (status_and_code serve_out);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "route refuses it as serve does" (status_and_code serve_out)
    (status_and_code route_out)

let suite =
  [
    ("cli run", `Quick, test_run);
    ("cli analyze reports constants", `Quick, test_analyze_reports_constants);
    ("cli substitute round-trip", `Quick, test_analyze_substitute_roundtrip);
    ("cli lint clean and dirty", `Quick, test_lint_clean_and_dirty);
    ("cli generate then run", `Quick, test_generate_then_run);
    ("cli analyze 200-procedure golden", `Quick, test_analyze_gen200_golden);
    ("cli tables", `Quick, test_tables);
    ("cli tables --analysis copy", `Quick, test_tables_copy_analysis);
    ("cli unknown --analysis usage exit", `Quick, test_bad_analysis_usage_exit_code);
    ("cli profile json", `Quick, test_profile_json);
    ("cli profile stdout identical", `Quick, test_tables_profile_stdout_identical);
    ("cli syntax error exit code", `Quick, test_syntax_error_exit_code);
    ("cli parse error stderr golden", `Quick, test_parse_error_stderr_golden);
    ("cli multi-error diagnostics", `Quick, test_multi_error_diagnostics);
    ("cli unknown flag usage exit", `Quick, test_unknown_flag_usage_exit_code);
    ("cli missing file exit code", `Quick, test_missing_file_exit_code);
    ("cli runtime error exit code", `Quick, test_runtime_error_exit_code);
    ("cli out of fuel message", `Quick, test_out_of_fuel_message);
    ("cli generous budget identical", `Quick, test_generous_budget_identical);
    ("cli tiny budget degrades soundly", `Quick, test_tiny_budget_degrades_soundly);
    ("cli broken output pipe exits 3", `Quick, test_broken_output_pipe_exits_3);
    ("cli analyze --complete --against", `Quick, test_complete_against);
    ("cli route caps lines as serve does", `Quick, test_route_line_cap);
  ]
