(* Resource budgets: unit behaviour of the Budget module, and the
   soundness-under-degradation property — a budgeted analysis may miss
   constants, but every (procedure, parameter, value) fact it does claim
   is claimed by the unbudgeted analysis too, and a generous budget
   reproduces the unbudgeted results exactly. *)

open Ipcp_frontend
open Ipcp_core
module Budget = Ipcp_support.Budget
module Complete = Ipcp_incr.Complete

let check = Alcotest.check

let reason = Alcotest.testable Budget.pp_reason Budget.equal_reason

(* ---- unit behaviour ---- *)

let test_unlimited () =
  let b = Budget.create () in
  check Alcotest.bool "not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    check Alcotest.bool "tick" true (Budget.tick b)
  done;
  check (Alcotest.option reason) "never exhausted" None (Budget.exhausted b)

let test_step_budget_sticky () =
  let b = Budget.create ~max_steps:3 () in
  check Alcotest.bool "limited" true (Budget.is_limited b);
  check Alcotest.bool "1" true (Budget.tick b);
  check Alcotest.bool "2" true (Budget.tick b);
  check Alcotest.bool "3" true (Budget.tick b);
  check Alcotest.bool "4 exhausts" false (Budget.tick b);
  check Alcotest.bool "sticky" false (Budget.tick b);
  check (Alcotest.option reason) "reason" (Some (Budget.Steps 3))
    (Budget.exhausted b);
  check Alcotest.int "steps used" 4 (Budget.steps_used b)

let test_zero_step_budget () =
  let b = Budget.create ~max_steps:0 () in
  check Alcotest.bool "first tick already exhausts" false (Budget.tick b);
  check (Alcotest.option reason) "reason" (Some (Budget.Steps 0))
    (Budget.exhausted b)

let test_deadline_fake_clock () =
  (* clock in ns; each tick advances 1ms *)
  let now = ref 0L in
  let clock () = !now in
  let b = Budget.create ~clock ~deadline_ms:5 () in
  let rec go n =
    now := Int64.add !now 1_000_000L;
    if Budget.tick b then go (n + 1) else n
  in
  let survived = go 0 in
  check Alcotest.bool "a few ticks passed" true (survived >= 4);
  check (Alcotest.option reason) "deadline reason" (Some (Budget.Deadline 5))
    (Budget.exhausted b)

(* ---- monotonic-clock audit ----
   Budget deadlines and telemetry spans must share the monotonic
   nanosecond timebase (both default to [Monotonic_clock.now]); neither
   may consult wall time.  These regressions pin the observable
   consequences: deadlines are anchored to the creation instant of the
   monotonic clock, a clock that jumps backwards (as wall time can under
   NTP) never expires a budget early, and a span and a deadline driven
   by the same clock agree on what "n milliseconds" means. *)

let test_deadline_monotonic_anchor () =
  (* a large anchor simulates long process uptime; only elapsed-ns since
     creation may matter, never the absolute reading *)
  let anchor = 86_400_000_000_000L (* a day, in ns *) in
  let now = ref anchor in
  let b = Budget.create ~clock:(fun () -> !now) ~deadline_ms:5 () in
  now := Int64.add anchor 4_999_999L;
  check Alcotest.bool "within deadline" true (Budget.tick b);
  (* a backwards jump (wall-clock adjustment) must not expire it *)
  now := Int64.sub anchor 60_000_000_000L;
  check Alcotest.bool "clock jumped back: still alive" true (Budget.tick b);
  now := Int64.add anchor 5_000_001L;
  check Alcotest.bool "past deadline" false (Budget.tick b);
  check (Alcotest.option reason) "reason" (Some (Budget.Deadline 5))
    (Budget.exhausted b)

let test_deadline_consistent_with_telemetry () =
  (* one shared fake monotonic clock drives a telemetry span and two
     budgets; both modules must interpret it as nanoseconds *)
  let module Telemetry = Ipcp_telemetry.Telemetry in
  let now = ref 0L in
  let t = Telemetry.create ~clock:(fun () -> Int64.to_int !now) () in
  let tight = Budget.create ~clock:(fun () -> !now) ~deadline_ms:5 () in
  let loose = Budget.create ~clock:(fun () -> !now) ~deadline_ms:7 () in
  Telemetry.with_reporter t (fun () ->
      Telemetry.span "work" (fun () ->
          now := Int64.add !now 6_000_000L (* 6ms of "work" *)));
  (match Telemetry.spans t with
  | [ s ] -> check Alcotest.int "span measured 6ms" 6_000_000 s.Telemetry.sp_ns
  | _ -> Alcotest.fail "expected exactly one span");
  check Alcotest.bool "5ms deadline passed during the 6ms span" false
    (Budget.tick tight);
  check Alcotest.bool "7ms deadline survived the 6ms span" true
    (Budget.tick loose)

let test_reason_formatting () =
  check Alcotest.string "steps" "step budget exhausted after 7 steps"
    (Budget.reason_to_string (Budget.Steps 7));
  check Alcotest.string "deadline" "deadline of 12ms exceeded"
    (Budget.reason_to_string (Budget.Deadline 12))

(* ---- soundness under degradation ---- *)

(* Every constant fact of an analysis, as comparable triples. *)
let facts (t : Driver.t) : (string * Prog.param * int) list =
  Driver.constants t
  |> List.concat_map (fun (p, cs) ->
         List.map (fun (param, c) -> (p, param, c)) cs)
  |> List.sort compare

let subset a b = List.for_all (fun f -> List.mem f b) a

let show_param = function
  | Prog.Pformal i -> Fmt.str "formal:%d" i
  | Prog.Pglob k -> "glob:" ^ k

let soundness_on ?(budgets = [ 0; 1; 7; 63 ]) (config : Config.t)
    (prog : Prog.t) (what : string) =
  let full = Driver.analyze config prog in
  let full_facts = facts full in
  check Alcotest.bool (what ^ ": unbudgeted run not degraded") true
    (Driver.degraded full = []);
  List.iter
    (fun steps ->
      let t =
        Driver.analyze (Config.with_budget ~max_steps:steps config) prog
      in
      check Alcotest.bool
        (Fmt.str "%s: facts under max-steps=%d are a subset" what steps)
        true
        (subset (facts t) full_facts))
    budgets;
  (* a generous budget must reproduce the unbudgeted analysis exactly *)
  let generous =
    Driver.analyze (Config.with_budget ~max_steps:1_000_000 config) prog
  in
  check Alcotest.bool (what ^ ": generous budget not degraded") true
    (Driver.degraded generous = []);
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.int))
    (what ^ ": generous budget facts identical")
    (List.map (fun (p, prm, c) -> (p, show_param prm, c)) full_facts)
    (List.map (fun (p, prm, c) -> (p, show_param prm, c)) (facts generous))

let test_soundness_suite () =
  List.iter
    (fun (e : Ipcp_suite.Registry.entry) ->
      let prog = Ipcp_suite.Registry.program e in
      soundness_on Config.polynomial_with_mod prog e.name)
    Ipcp_suite.Registry.entries

let test_soundness_all_configs () =
  (* the six Table 2 configurations on one suite program *)
  let e = List.hd Ipcp_suite.Registry.entries in
  let prog = Ipcp_suite.Registry.program e in
  List.iter
    (fun (label, config) -> soundness_on config prog label)
    Config.table2_configs

(* QCheck: random workload programs under random budgets never invent a
   constant the unbudgeted analysis does not also claim. *)
let prop_soundness_generated =
  QCheck.Test.make ~name:"budgeted constants subset of unbudgeted" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 0 200))
    (fun (seed, steps) ->
      let src =
        Ipcp_suite.Workload.generate
          { Ipcp_suite.Workload.default_spec with seed }
      in
      let prog = Sema.parse_and_resolve src in
      let config = Config.polynomial_with_mod in
      let full = facts (Driver.analyze config prog) in
      let budgeted =
        facts (Driver.analyze (Config.with_budget ~max_steps:steps config) prog)
      in
      subset budgeted full)

(* budgeted substitution counts never exceed the unbudgeted counts
   (degraded SCCP contributes nothing rather than guessing) *)
let test_budgeted_substitution_counts () =
  List.iter
    (fun (e : Ipcp_suite.Registry.entry) ->
      let prog = Ipcp_suite.Registry.program e in
      let full = snd (Substitute.apply (Driver.analyze Config.default prog)) in
      List.iter
        (fun steps ->
          let t =
            Driver.analyze (Config.with_budget ~max_steps:steps Config.default)
              prog
          in
          let budgeted = snd (Substitute.apply t) in
          check Alcotest.bool
            (Fmt.str "%s: substitutions at max-steps=%d do not exceed full"
               e.name steps)
            true
            (budgeted.total <= full.total))
        [ 0; 5; 50 ])
    Ipcp_suite.Registry.entries

(* Complete propagation under a round budget stops early but stays sound. *)
let test_complete_budgeted () =
  let e = List.hd Ipcp_suite.Registry.entries in
  let prog = Ipcp_suite.Registry.program e in
  let full = Complete.run prog in
  let budget = Budget.create ~max_steps:0 () in
  let tight = Complete.run ~budget prog in
  check Alcotest.bool "budgeted substitutions do not exceed full" true
    (tight.substituted <= full.substituted);
  check Alcotest.bool "unbudgeted outcome is not degraded" true
    (full.degraded = [])

let suite =
  [
    ("budget unlimited", `Quick, test_unlimited);
    ("budget steps sticky", `Quick, test_step_budget_sticky);
    ("budget zero steps", `Quick, test_zero_step_budget);
    ("budget deadline (fake clock)", `Quick, test_deadline_fake_clock);
    ("budget deadline monotonic anchor", `Quick, test_deadline_monotonic_anchor);
    ( "budget deadline consistent with telemetry",
      `Quick,
      test_deadline_consistent_with_telemetry );
    ("budget reason formatting", `Quick, test_reason_formatting);
    ("degradation sound on suite", `Quick, test_soundness_suite);
    ("degradation sound across configs", `Quick, test_soundness_all_configs);
    QCheck_alcotest.to_alcotest prop_soundness_generated;
    ("budgeted substitution counts", `Quick, test_budgeted_substitution_counts);
    ("complete propagation budgeted", `Quick, test_complete_budgeted);
  ]
