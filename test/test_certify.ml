(* The independent certifier: every suite program certifies under every
   table configuration and under tight budgets; a deliberately corrupted
   solution is rejected with a located E-CERT diagnostic (both through
   the direct hook and through Fault injection); the metamorphic
   transforms preserve analysis results; and the CLI surfaces
   certification failure as exit code 4. *)

open Ipcp_frontend
open Ipcp_core
module Certify = Ipcp_certify.Certify
module Metamorph = Ipcp_certify.Metamorph
module Fault = Ipcp_support.Fault

let check = Alcotest.check
let fail = Alcotest.fail

let suite_programs () =
  List.map
    (fun (e : Ipcp_suite.Registry.entry) ->
      (e.name, e.source, Ipcp_suite.Registry.program e))
    Ipcp_suite.Registry.entries

(* ---- certification passes ---- *)

let test_suite_all_configs () =
  List.iter
    (fun (name, _, prog) ->
      List.iter
        (fun (label, r) ->
          check Alcotest.bool
            (Fmt.str "%s certifies under %s: %a" name label Certify.pp_report r)
            true (Certify.ok r))
        (Certify.check_program prog))
    (suite_programs ())

let test_suite_under_budgets () =
  List.iter
    (fun (name, _, prog) ->
      List.iter
        (fun steps ->
          let config = Config.with_budget ~max_steps:steps Config.default in
          let r = Certify.check (Driver.analyze config prog) in
          check Alcotest.bool
            (Fmt.str "%s certifies at max-steps=%d: %a" name steps
               Certify.pp_report r)
            true (Certify.ok r))
        [ 0; 1; 63; 1_000_000 ])
    (suite_programs ())

(* ---- copy propagation under the same certifier ---- *)

let copy_configs =
  List.map
    (fun (label, c) -> (label, Config.with_analysis `Copy c))
    Certify.default_configs

let test_copy_suite_all_configs () =
  List.iter
    (fun (name, _, prog) ->
      List.iter
        (fun (label, r) ->
          check Alcotest.bool
            (Fmt.str "%s certifies under copy %s: %a" name label
               Certify.pp_report r)
            true (Certify.ok r))
        (Certify.check_program ~configs:copy_configs prog))
    (suite_programs ())

let test_copy_suite_under_budgets () =
  (* every configuration × every budget: degraded copy fixpoints must
     still discharge all obligations, exactly like the const ones *)
  List.iter
    (fun (name, _, prog) ->
      List.iter
        (fun (label, config) ->
          List.iter
            (fun steps ->
              let config = Config.with_budget ~max_steps:steps config in
              let r = Certify.check (Driver.analyze config prog) in
              check Alcotest.bool
                (Fmt.str "%s certifies under copy %s at max-steps=%d: %a" name
                   label steps Certify.pp_report r)
                true (Certify.ok r))
            [ 0; 1; 63; 1_000_000 ])
        copy_configs)
    (suite_programs ())

let test_copy_corrupt_detected () =
  List.iter
    (fun (name, _, prog) ->
      let t = Driver.analyze (Config.with_analysis `Copy Config.default) prog in
      match Certify.corrupt ~seed:97 t with
      | None -> fail (name ^ ": no corruptible copy binding")
      | Some bad ->
        let r = Certify.check bad in
        check Alcotest.bool (name ^ ": copy corruption rejected") false
          (Certify.ok r))
    (suite_programs ())

let test_exec_witnessed () =
  (* suite programs terminate, so the interpreter witness must complete
     and the execution obligations must actually be discharged *)
  List.iter
    (fun (name, _, prog) ->
      let r = Certify.check (Driver.analyze Config.default prog) in
      check Alcotest.bool (name ^ ": execution witnessed") true
        (r.Certify.witness = Certify.Witnessed))
    (suite_programs ())

(* The SCCP obligations and the execution witness's substitution share
   one SCCP run per procedure (the result's memo). *)
let test_exec_sccp_once () =
  let name, _, prog = List.hd (suite_programs ()) in
  let sccp_runs f =
    let module Telemetry = Ipcp_telemetry.Telemetry in
    let coll = Telemetry.create () in
    let r = Telemetry.with_reporter coll f in
    (r, Option.value ~default:0 (Telemetry.counter coll "sccp.runs"))
  in
  let t = Driver.solve Config.default (Driver.prepare prog) in
  let r, runs = sccp_runs (fun () -> Certify.check t) in
  check Alcotest.bool (name ^ ": execution witnessed") true
    (r.Certify.witness = Certify.Witnessed);
  check Alcotest.int (name ^ ": sccp.runs = procedures")
    (List.length prog.Prog.procs) runs;
  (* [analyze --certify]: the certifier reads what substitution ran *)
  let o, runs =
    sccp_runs (fun () ->
        Ipcp_serve.Jobs.analyze ~certify:true ~config:Config.default ~jobs:1
          prog)
  in
  check Alcotest.int (name ^ ": analyze --certify exits 0") 0
    o.Ipcp_serve.Jobs.code;
  check Alcotest.int (name ^ ": analyze --certify sccp.runs = procedures")
    (List.length prog.Prog.procs) runs

(* A [depth]-deep call chain whose leaf writes its formal and a global:
   every level's MOD grows once.  Listed callers first, a sweep over the
   procedure list until nothing changes takes one sweep per level. *)
let mod_chain_src ~callers_first depth =
  let unit i =
    if i = 0 then "program main\ninteger g\ncommon /c/ g\ncall p1(g)\nend\n"
    else if i < depth then
      Printf.sprintf "subroutine p%d(k)\ninteger k\ncall p%d(k)\nend\n" i
        (i + 1)
    else
      Printf.sprintf
        "subroutine p%d(k)\ninteger k\ninteger g\ncommon /c/ g\nk = k + \
         1\ng = 2\nend\n"
        i
  in
  let units = List.init (depth + 1) unit in
  String.concat "" (if callers_first then units else List.rev units)

(* MOD's re-derivation translates each call site a bounded number of
   times, whatever the depth and the order of the chain. *)
let test_mod_closure_linear () =
  List.iter
    (fun callers_first ->
      let order = if callers_first then "callers first" else "callees first" in
      let per_site depth =
        let prog =
          Ipcp_frontend.Sema.parse_and_resolve
            (mod_chain_src ~callers_first depth)
        in
        let coll = Ipcp_telemetry.Telemetry.create () in
        let r =
          Ipcp_telemetry.Telemetry.with_reporter coll (fun () ->
              Certify.check (Driver.analyze Config.default prog))
        in
        check Alcotest.bool
          (Fmt.str "%s, depth %d: %a" order depth Certify.pp_report r)
          true (Certify.ok r);
        let translations =
          Option.value ~default:0
            (Ipcp_telemetry.Telemetry.counter coll "certify.mod_translations")
        in
        float_of_int translations /. float_of_int depth
      in
      let shallow = per_site 1250 and deep = per_site 2500 in
      if shallow <= 0.0 || deep > 1.5 *. shallow then
        Alcotest.failf
          "%s: %.2f MOD translations per call site at depth 1250, %.2f at 2500"
          order shallow deep)
    [ true; false ]

(* The stress shapes, each as a function of its size, with the counter
   that shows the shape's own per-unit work: one procedure with [n]
   calls, [n]-deep [if] nesting, one [n]-term expression (whose terms
   show as parsed tokens), one procedure of [n] statements, and [n]
   common globals with load-time values, passed from main to one
   subroutine (declared [integer]: implicit typing makes [g*] real). *)
let stress_shapes =
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  let sub = "subroutine s(a)\ninteger a\nprint *, a\nend\n" in
  let globals n = String.concat ", " (List.init n (Fmt.str "g%d")) in
  let common n =
    Fmt.str "integer %s\ncommon /c/ %s\n" (globals n) (globals n)
  in
  [
    ( "calls", 20000, "solver.jf_evaluations",
      fun n ->
        "program main\ninteger k, i\nk = 3\ni = 5\n"
        ^ rep n "call s(k, mod(i, 7))\n"
        ^ "end\nsubroutine s(a, b)\ninteger a, b\nprint *, a + b\nend\n" );
    ( "if nesting", 3000, "sccp.flow_edge_visits",
      fun n ->
        "program main\ninteger k\nk = 1\n"
        ^ rep n "if (k .ge. 1) then\nk = k + 1\n"
        ^ "call s(k)\n" ^ rep n "end if\n" ^ "end\n" ^ sub );
    ( "expression terms", 20000, "parse.tokens",
      fun n ->
        "program main\ninteger k, j\nk = 2\nj = k"
        ^ rep (n - 1) " + k"
        ^ "\ncall s(j)\nend\n" ^ sub );
    ( "statements", 20000, "sccp.ssa_visits",
      fun n ->
        "program main\ninteger k\nk = 1\n" ^ rep n "k = k + 1\n"
        ^ "call s(k)\nend\n" ^ sub );
    ( "data globals", 400, "solver.jf_evaluations",
      fun n ->
        "program main\n" ^ common n
        ^ String.concat ""
            (List.init n (fun i -> Fmt.str "data g%d /%d/\n" i i))
        ^ "call s\nend\nsubroutine s\n" ^ common n ^ "print *, " ^ globals n
        ^ "\nend\n" );
  ]

(* Analyzing, substituting and certifying a shape at half and at full
   size does work linear in the size: every counter the pipeline
   reports, and the certifier's obligations, grow at most 1.5× faster
   than the size, and whole-program walks not at all.  Counters, not
   wall clock: a quadratic pass shows as a counter per unit that
   doubles. *)
let test_stress_shapes_linear () =
  List.iter
    (fun (shape, size, own, src) ->
      let work n =
        let coll = Ipcp_telemetry.Telemetry.create () in
        let r =
          Ipcp_telemetry.Telemetry.with_reporter coll (fun () ->
              let t =
                Driver.analyze Config.default
                  (Sema.parse_and_resolve (src n))
              in
              ignore (Substitute.apply t);
              Certify.check t)
        in
        check Alcotest.bool
          (Fmt.str "%s at %d: %a" shape n Certify.pp_report r)
          true
          (Certify.ok r && r.witness = Certify.Witnessed);
        ("obligations", r.obligations)
        :: Ipcp_telemetry.Telemetry.counters coll
      in
      let half = work (size / 2) and full = work size in
      let get counters name =
        Option.value ~default:0 (List.assoc_opt name counters)
      in
      check Alcotest.int (shape ^ ": prog.walks do not grow")
        (get half "prog.walks") (get full "prog.walks");
      if get full own < size then
        Alcotest.failf "%s: %s is %d at size %d" shape own (get full own) size;
      List.iter
        (fun (name, n) ->
          let per_half =
            float_of_int (get half name) /. float_of_int (size / 2)
          and per_full = float_of_int n /. float_of_int size in
          if per_full > 1.5 *. per_half then
            Alcotest.failf "%s: %s per unit %.3f at size %d, %.3f at %d" shape
              name per_half (size / 2) per_full size)
        full)
    stress_shapes

(* ---- corruption is detected ---- *)

let test_corrupt_detected () =
  List.iter
    (fun (name, _, prog) ->
      let t = Driver.analyze Config.default prog in
      match Certify.corrupt ~seed:97 t with
      | None -> fail (name ^ ": no corruptible binding")
      | Some bad ->
        let r = Certify.check bad in
        check Alcotest.bool (name ^ ": corruption rejected") false
          (Certify.ok r);
        (* the diagnostic is located and coded *)
        let v = List.hd r.Certify.violations in
        check Alcotest.bool (name ^ ": violation carries an E-CERT code") true
          (String.length v.Certify.v_code >= 6
          && String.sub v.Certify.v_code 0 6 = "E-CERT");
        check Alcotest.bool (name ^ ": violation is located") true
          (v.Certify.v_loc.Loc.line > 0);
        check Alcotest.bool (name ^ ": violation names a procedure") true
          (v.Certify.v_proc <> ""))
    (suite_programs ())

let test_corrupt_detected_every_seed () =
  let _, _, prog = List.hd (suite_programs ()) in
  let t = Driver.analyze Config.default prog in
  List.iter
    (fun seed ->
      match Certify.corrupt ~seed t with
      | None -> fail "no corruptible binding"
      | Some bad ->
        check Alcotest.bool
          (Fmt.str "corruption under seed %d rejected" seed)
          false
          (Certify.ok (Certify.check bad)))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let test_fault_hook_corrupts () =
  (* the Fault corruption site drives the same rejection end-to-end *)
  let _, _, prog = List.hd (suite_programs ()) in
  Fault.with_faults ~corrupt_rate:1.0 ~seed:7 (fun () ->
      let r = Certify.check (Driver.analyze Config.default prog) in
      check Alcotest.bool "Fault-corrupted solution rejected" false
        (Certify.ok r));
  (* and with faults cleared the same program certifies again *)
  let r = Certify.check (Driver.analyze Config.default prog) in
  check Alcotest.bool "clean solution certifies" true (Certify.ok r)

let test_diagnostics_export () =
  let _, _, prog = List.hd (suite_programs ()) in
  let t = Driver.analyze Config.default prog in
  match Certify.corrupt ~seed:3 t with
  | None -> fail "no corruptible binding"
  | Some bad ->
    let r = Certify.check bad in
    let rendered = Fmt.str "%a" Ipcp_support.Diagnostics.pp
        (Certify.to_diagnostics r)
    in
    check Alcotest.bool "rendered diagnostics mention E-CERT" true
      (let needle = "E-CERT" in
       let n = String.length needle in
       let rec go i =
         i + n <= String.length rendered
         && (String.sub rendered i n = needle || go (i + 1))
       in
       go 0)

(* ---- metamorphic transforms preserve results ---- *)

let profile prog = List.sort compare (Driver.constants (Driver.analyze Config.default prog))

let test_rename_preserves_analysis () =
  List.iter
    (fun (name, source, prog) ->
      let renamed = Metamorph.rename_variables ~seed:5 source in
      match Sema.check ~file:(name ^ "-renamed") renamed with
      | Error _ -> fail (name ^ ": renamed program does not resolve")
      | Ok prog_r ->
        check Alcotest.bool (name ^ ": rename preserves CONSTANTS") true
          (profile prog = profile prog_r))
    (suite_programs ())

let test_reorder_preserves_analysis () =
  List.iter
    (fun (name, source, prog) ->
      let reordered = Metamorph.reorder_procs ~seed:5 source in
      match Sema.check ~file:(name ^ "-reordered") reordered with
      | Error _ -> fail (name ^ ": reordered program does not resolve")
      | Ok prog_r ->
        check Alcotest.bool (name ^ ": reorder preserves CONSTANTS") true
          (profile prog = profile prog_r))
    (suite_programs ())

(* ---- the CLI surface ---- *)

let bin () =
  match Sys.getenv_opt "IPCP_BIN" with
  | Some p when Sys.file_exists p -> p
  | _ -> fail "IPCP_BIN not set; run via dune"

(* Run the binary (optionally with an environment prefix); return
   (exit code, merged output lines). *)
let run_cli ?(env = "") args =
  let out = Filename.temp_file "ipcp_certify" ".out" in
  let cmd =
    Fmt.str "%s %s %s > %s 2>&1" env (Filename.quote (bin ()))
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  (code, List.rev !lines)

let write_temp src =
  let path = Filename.temp_file "ipcp_certify" ".f" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  path

let contains needle lines =
  List.exists
    (fun line ->
      let n = String.length needle in
      let rec go i =
        i + n <= String.length line
        && (String.sub line i n = needle || go (i + 1))
      in
      n = 0 || go 0)
    lines

let test_cli_certify_ok () =
  let _, source, _ = List.hd (suite_programs ()) in
  let path = write_temp source in
  let code, lines = run_cli [ "certify"; path ] in
  Sys.remove path;
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.bool "reports certified" true (contains "certified" lines)

(* A witness cut short by its fuel is reported, not silently dropped:
   the verdict keeps its prefix and says why execution went unchecked
   (the interpreter counts the step that found the fuel gone). *)
let test_cli_certify_unwitnessed () =
  let _, source, _ = List.hd (suite_programs ()) in
  let path = write_temp source in
  let code, lines = run_cli [ "certify"; "--fuel"; "10"; path ] in
  Sys.remove path;
  check Alcotest.int "an unwitnessed certification exits 0" 0 code;
  check Alcotest.bool "verdict keeps its prefix" true
    (contains ": certified (" lines);
  check Alcotest.bool "suffix names the fuel" true
    (contains ", execution not witnessed: out of fuel after 11 steps)" lines)

let test_cli_certify_corrupted_exits_4 () =
  let _, source, _ = List.hd (suite_programs ()) in
  let path = write_temp source in
  let code, lines =
    run_cli ~env:"IPCP_FAULT_CORRUPT=7" [ "certify"; path ]
  in
  Sys.remove path;
  check Alcotest.int "exit 4 on certification failure" 4 code;
  check Alcotest.bool "an E-CERT diagnostic is printed" true
    (contains "E-CERT" lines);
  check Alcotest.bool "the diagnostic is located" true
    (contains ".f:" lines)

let test_cli_inject_error_selftest () =
  let _, source, _ = List.hd (suite_programs ()) in
  let path = write_temp source in
  let code, lines = run_cli [ "certify"; "--inject-error"; "11"; path ] in
  Sys.remove path;
  check Alcotest.int "self-test exits 0 when rejection works" 0 code;
  check Alcotest.bool "reports the rejection" true
    (contains "injected error rejected" lines)

let test_cli_analyze_certify_flag () =
  let _, source, _ = List.hd (suite_programs ()) in
  let path = write_temp source in
  let code, lines = run_cli [ "analyze"; "--certify"; path ] in
  Sys.remove path;
  check Alcotest.int "analyze --certify exits 0" 0 code;
  check Alcotest.bool "reports certified" true (contains "certified" lines)

let test_cli_certify_usage () =
  let code, _ = run_cli [ "certify" ] in
  check Alcotest.int "no FILE and no --suite is a usage error" 2 code

let suite =
  [
    ("suite certifies under all configs", `Quick, test_suite_all_configs);
    ("suite certifies under budgets", `Quick, test_suite_under_budgets);
    ("copy: suite certifies under all configs", `Quick, test_copy_suite_all_configs);
    ("copy: suite certifies under configs x budgets", `Quick, test_copy_suite_under_budgets);
    ("copy: corruption detected", `Quick, test_copy_corrupt_detected);
    ("execution witnessed on suite", `Quick, test_exec_witnessed);
    ("certify runs SCCP once per procedure", `Quick, test_exec_sccp_once);
    ("MOD closure is linear on a call chain", `Quick, test_mod_closure_linear);
    ("corruption detected on every program", `Quick, test_corrupt_detected);
    ("corruption detected under many seeds", `Quick, test_corrupt_detected_every_seed);
    ("Fault hook corrupts and is caught", `Quick, test_fault_hook_corrupts);
    ("diagnostics export", `Quick, test_diagnostics_export);
    ("rename preserves analysis", `Quick, test_rename_preserves_analysis);
    ("reorder preserves analysis", `Quick, test_reorder_preserves_analysis);
    ("cli: certify ok", `Quick, test_cli_certify_ok);
    ("cli: certify reports an unwitnessed execution", `Quick,
     test_cli_certify_unwitnessed);
    ("cli: corrupted solution exits 4", `Quick, test_cli_certify_corrupted_exits_4);
    ("cli: --inject-error self-test", `Quick, test_cli_inject_error_selftest);
    ("cli: analyze --certify", `Quick, test_cli_analyze_certify_flag);
    ("cli: certify usage error", `Quick, test_cli_certify_usage);
    ("stress shapes are linear in their size", `Quick,
     test_stress_shapes_linear);
  ]
