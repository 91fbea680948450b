(* Staged-API contract tests.

   The staged pipeline — [Driver.prepare] once, [Driver.solve] per
   configuration — must be observationally identical to the legacy
   one-shot [Driver.analyze] for every configuration the paper's tables
   use, on every suite program; the parallel tables must render
   byte-identically to the sequential ones; and complete propagation must
   actually reuse stage-1/2 artifacts for unchanged procedures between
   DCE rounds. *)

open Ipcp_core
open Ipcp_suite
open Ipcp_telemetry

let check = Alcotest.check

(* every configuration exercised by Tables 2 and 3 *)
let all_configs =
  List.map (fun (label, c) -> ("t2:" ^ label, c)) Config.table2_configs
  @ [
      ("t3:poly_no_mod", Config.polynomial_no_mod);
      ("t3:poly_mod", Config.polynomial_with_mod);
      ("t3:intra_only", Config.intraprocedural_only);
    ]

let test_staged_equals_legacy () =
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      let artifacts = Driver.prepare prog in
      List.iter
        (fun (label, config) ->
          let staged = Driver.solve config artifacts in
          let legacy = Driver.analyze config prog in
          check Alcotest.int
            (Fmt.str "%s/%s constants_count" e.name label)
            (Driver.constants_count legacy)
            (Driver.constants_count staged);
          check Alcotest.string
            (Fmt.str "%s/%s CONSTANTS sets" e.name label)
            (Fmt.str "%a" Driver.pp_constants legacy)
            (Fmt.str "%a" Driver.pp_constants staged))
        all_configs)
    Registry.entries

let test_analyze_is_prepare_plus_solve () =
  (* the compat wrapper and an explicit stage split agree on substitution
     counts too (the substitution consumes eids, envs and the solution) *)
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      let artifacts = Driver.prepare prog in
      List.iter
        (fun (label, config) ->
          check Alcotest.int
            (Fmt.str "%s/%s substituted" e.name label)
            (Substitute.count config prog)
            (Substitute.count_staged artifacts config))
        all_configs)
    Registry.entries

let test_tables_parallel_determinism () =
  let render jobs = Fmt.str "%a" (fun ppf () -> Tables.pp_all ~jobs ppf ()) () in
  let sequential = render 1 in
  check Alcotest.string "jobs=4 byte-identical to jobs=1" sequential (render 4);
  check Alcotest.bool "tables render non-empty" true
    (String.length sequential > 0)

(* the DCE example: the else-branch of [conf] is dead once mode=1 is
   known, so complete propagation iterates, and [sink] — unchanged by the
   elimination — must have its stage-1/2 artifacts reused *)
let dce_src =
  "program main\n\
   call conf(1)\n\
   end\n\
   subroutine conf(mode)\n\
   integer mode, v\n\
   if (mode .eq. 1) then\n\
   v = 10\n\
   else\n\
   v = 20\n\
   end if\n\
   call sink(v)\n\
   end\n\
   subroutine sink(b)\n\
   integer b\n\
   print *, b\n\
   end\n"

let test_complete_reuses_artifacts () =
  let prog = Ipcp_frontend.Sema.parse_and_resolve dce_src in
  let t = Telemetry.create () in
  let outcome = Telemetry.with_reporter t (fun () -> Complete.run prog) in
  check Alcotest.bool "iteration actually happened" true
    (outcome.Complete.dce_rounds >= 1);
  check Alcotest.bool "stage-1/2 artifacts reused between rounds" true
    (match Telemetry.counter t "driver.stage12_reused" with
    | Some n -> n > 0
    | None -> false);
  (* and reuse does not change the answer *)
  check Alcotest.int "complete result unaffected"
    (Complete.run prog).Complete.substituted outcome.Complete.substituted

(* The complexity contract: analysis work per procedure stays flat as
   programs grow.  Work counters, not wall-clock time, so the test is as
   stable as the counters.  A quadratic term shows as a whole-program
   walk per procedure ([prog.walks] growing with the program) or as IR
   built more than once per procedure. *)
let contract_counters procs =
  let prog =
    Ipcp_suite.Workload.generate_resolved
      {
        Ipcp_suite.Workload.default_spec with
        seed = 42;
        num_procs = procs;
        stmts_per_proc = 10;
      }
  in
  let t = Telemetry.create () in
  Telemetry.with_reporter t (fun () ->
      ignore (Substitute.apply (Driver.analyze Config.default prog)));
  let counter name = Option.value ~default:0 (Telemetry.counter t name) in
  (List.length prog.Ipcp_frontend.Prog.procs, counter)

(* An [n]-procedure call chain whose only common declaration is in
   main, which comes last: every other procedure's CONSTANTS name the
   global by main's alias.  Rendering must find that name without a
   scan of the program per printed constant. *)
let chain_src n =
  let buf = Buffer.create (64 * n) in
  for i = 1 to n - 1 do
    Printf.bprintf buf "subroutine p%d(k)\ninteger k\n" i;
    if i < n - 1 then Printf.bprintf buf "call p%d(k)\n" (i + 1)
    else Buffer.add_string buf "print *, k\n";
    Buffer.add_string buf "end\n"
  done;
  Buffer.add_string buf
    "program main\ninteger x\ncommon /c/ x\nx = 5\ncall p1(1)\nend\n";
  Buffer.contents buf

let render_counters procs =
  let prog = Ipcp_frontend.Sema.parse_and_resolve (chain_src procs) in
  let t = Driver.analyze Config.default prog in
  let coll = Telemetry.create () in
  let out =
    Telemetry.with_reporter coll (fun () -> Fmt.str "%a" Driver.pp_constants t)
  in
  check Alcotest.bool "a chain procedure names main's global" true
    (Test_interp.contains ~sub:"p1: k=1, x=5" out);
  Option.value ~default:0 (Telemetry.counter coll "prog.walks")

let test_complexity_contract () =
  check Alcotest.int "rendering walks the program once (small, large)"
    (render_counters 200) (render_counters 1600);
  let small_procs, small = contract_counters 200 in
  let large_procs, large = contract_counters 1600 in
  check Alcotest.int "jf.build_ir = procedures (small)" small_procs
    (small "jf.build_ir");
  check Alcotest.int "jf.build_ir = procedures (large)" large_procs
    (large "jf.build_ir");
  check Alcotest.bool "prog.walks counted" true (small "prog.walks" > 0);
  check Alcotest.int "prog.walks does not grow with the program"
    (small "prog.walks") (large "prog.walks");
  List.iter
    (fun name ->
      let per counter procs = float_of_int (counter name) /. float_of_int procs in
      let s = per small small_procs and l = per large large_procs in
      if s <= 0.0 || l <= 0.0 || l > 1.5 *. s || s > 1.5 *. l then
        Alcotest.failf "%s per procedure: %.1f at %d procedures, %.1f at %d"
          name s small_procs l large_procs)
    [ "jf.ret_oracle.evals"; "sccp.ssa_visits"; "solver.jf_evaluations" ]

(* The update contract: a one-literal edit in one procedure other than
   main costs that procedure's work, not the program's.  The previous
   version is rendered first, as serve renders every session. *)
let update_counters procs =
  let src =
    Ipcp_suite.Workload.generate
      {
        Ipcp_suite.Workload.default_spec with
        seed = 42;
        num_procs = procs;
        stmts_per_proc = 10;
      }
  in
  (* the first literal assignment after main's [end] gains a digit *)
  let in_main = ref true and edited = ref false in
  let edited_src =
    String.split_on_char '\n' src
    |> List.map (fun l ->
           if l = "end" then in_main := false;
           if
             (not !in_main) && (not !edited)
             && String.starts_with ~prefix:"  lv" l
             && String.contains l '='
             && String.for_all
                  (fun c -> c <> '(' && c <> '+' && c <> '*' && c <> '-')
                  l
           then begin
             edited := true;
             l ^ "1"
           end
           else l)
    |> String.concat "\n"
  in
  check Alcotest.bool "edited" true !edited;
  let resolve = Ipcp_frontend.Sema.parse_and_resolve in
  let config = Config.default in
  let prev = Ipcp_incr.Incr.start config (resolve src) in
  ignore
    (Ipcp_serve.Jobs.analyze ~solved:(Ipcp_incr.Incr.result prev) ~config
       ~jobs:1 (Ipcp_incr.Incr.prog prev));
  let next = resolve edited_src in
  let coll = Telemetry.create () in
  let rendered =
    Telemetry.with_reporter coll (fun () ->
        let sess, _ = Ipcp_incr.Incr.update ~prev next in
        Ipcp_serve.Jobs.analyze ~solved:(Ipcp_incr.Incr.result sess) ~config
          ~jobs:1 next)
  in
  check Alcotest.bool "byte-identical to a fresh analyze" true
    (rendered = Ipcp_serve.Jobs.analyze ~config ~jobs:1 next);
  let counter name = Option.value ~default:0 (Telemetry.counter coll name) in
  List.iter
    (fun (name, expected) ->
      check Alcotest.int (Printf.sprintf "%s at %d procedures" name procs)
        expected (counter name))
    [
      ("callgraph.sites_scanned", 1);
      ("callgraph.sites_copied", procs);
      ("modref.effects_computed", 1);
      ("modref.effects_copied", procs);
      ("modref.sccs_closed", 1);
      ("incr.site_lists_compared", 1);
      ("callgraph.sccs_computed", 0);
    ];
  counter "prog.walks"

let test_update_contract () =
  check Alcotest.int "an update's prog.walks do not grow with the program"
    (update_counters 200) (update_counters 1600)

let suite =
  [
    ("staged solve equals legacy analyze", `Quick, test_staged_equals_legacy);
    ("staged substitution counts agree", `Quick,
     test_analyze_is_prepare_plus_solve);
    ("parallel tables byte-identical", `Quick, test_tables_parallel_determinism);
    ("complete propagation reuses artifacts", `Quick,
     test_complete_reuses_artifacts);
    ("complexity contract at 200 and 1600 procedures", `Quick,
     test_complexity_contract);
    ("update counter contract at 200 and 1600 procedures", `Quick,
     test_update_contract);
  ]
