(* Tests for the extensions beyond the paper's core study:
   - constant-driven procedure cloning;
   - the FORTRAN argument-aliasing checker. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_suite

let check = Alcotest.check
let fail = Alcotest.fail

let resolve = Sema.parse_and_resolve

(* ------------------------------------------------------------------ *)
(* Cloning *)

let cloning_src =
  "program main\n\
   call a\n\
   call b\n\
   end\n\
   subroutine a\ncall s(3)\nend\n\
   subroutine b\ncall s(5)\nend\n\
   subroutine s(w)\ninteger w\nprint *, w, w * 2\nend\n"

let test_cloning_recovers_constants () =
  let prog = resolve cloning_src in
  let before = Substitute.count Config.polynomial_with_mod prog in
  let r = Cloning.clone prog in
  check Alcotest.int "one clone" 1 r.clones_made;
  let after = Substitute.count Config.polynomial_with_mod r.cloned in
  check Alcotest.bool "more constants after cloning" true (after > before);
  (* all four uses of w become constant *)
  check Alcotest.int "all uses substituted" 4 after

let test_cloning_preserves_behaviour () =
  let prog = resolve cloning_src in
  let r = Cloning.clone prog in
  let r1 = Ipcp_interp.Interp.run ~trace_entries:false prog in
  let r2 = Ipcp_interp.Interp.run ~trace_entries:false r.cloned in
  check (Alcotest.list Alcotest.string) "same output" r1.outputs r2.outputs

let test_cloning_noop_when_agreeing () =
  let prog =
    resolve
      "program main\ncall s(3)\ncall s(3)\nend\nsubroutine s(w)\ninteger \
       w\nprint *, w\nend\n"
  in
  let r = Cloning.clone prog in
  check Alcotest.int "no clones" 0 r.clones_made

let test_cloning_respects_cap () =
  let prog =
    resolve
      "program main\ncall s(1)\ncall s(2)\ncall s(3)\ncall s(4)\ncall \
       s(5)\ncall s(6)\nend\nsubroutine s(w)\ninteger w\nprint *, w\nend\n"
  in
  let r = Cloning.clone ~max_clones_per_proc:3 prog in
  check Alcotest.bool "at most 2 clones beyond the original" true
    (r.clones_made <= 2)

let prop_cloning_preserves_behaviour =
  QCheck2.Test.make ~name:"cloning preserves printed output" ~count:40
    (QCheck2.Gen.int_range 1 10_000) (fun seed ->
      let prog =
        Workload.generate_resolved { Workload.default_spec with seed }
      in
      let cloned, _ = Cloning.clone_to_fixpoint prog in
      let r1 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false prog in
      let r2 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false cloned in
      match (r1.outcome, r2.outcome) with
      | Ipcp_interp.Interp.Finished, Ipcp_interp.Interp.Finished ->
        r1.outputs = r2.outputs
      | Out_of_fuel, _ | _, Out_of_fuel -> true
      | _, _ -> false)

let prop_cloning_monotone =
  QCheck2.Test.make ~name:"cloning never loses constants" ~count:40
    (QCheck2.Gen.int_range 1 10_000) (fun seed ->
      let prog =
        Workload.generate_resolved { Workload.default_spec with seed }
      in
      let before = Substitute.count Config.polynomial_with_mod prog in
      let cloned, _ = Cloning.clone_to_fixpoint prog in
      let after = Substitute.count Config.polynomial_with_mod cloned in
      after >= before)

(* ------------------------------------------------------------------ *)
(* Aliasing checker *)

let test_alias_same_var_twice () =
  let prog =
    resolve
      "program main\ninteger n\nn = 1\ncall s(n, n)\nprint *, n\nend\n\
       subroutine s(a, b)\ninteger a, b\na = b + 1\nend\n"
  in
  match Alias_check.check prog with
  | [ v ] ->
    check Alcotest.string "caller" "main" v.v_caller;
    check Alcotest.string "callee" "s" v.v_callee
  | vs -> fail (Fmt.str "expected 1 violation, got %d" (List.length vs))

let test_alias_same_var_twice_unmodified_ok () =
  let prog =
    resolve
      "program main\ninteger n\nn = 1\ncall s(n, n)\nend\n\
       subroutine s(a, b)\ninteger a, b\nprint *, a + b\nend\n"
  in
  check Alcotest.int "no violations" 0 (List.length (Alias_check.check prog))

let test_alias_global_passed_to_modifying_callee () =
  let prog =
    resolve
      "program main\ncommon /c/ g\ninteger g\ng = 1\ncall s(g)\nend\n\
       subroutine s(a)\ninteger a\ncommon /c/ h\ninteger h\nh = 2\nprint *, \
       a\nend\n"
  in
  check Alcotest.int "one violation" 1 (List.length (Alias_check.check prog))

let test_alias_global_into_modified_formal () =
  let prog =
    resolve
      "program main\ncommon /c/ g\ninteger g\ng = 1\ncall s(g)\nend\n\
       subroutine s(a)\ninteger a\ncommon /c/ h\ninteger h\na = h + 1\nend\n"
  in
  check Alcotest.bool "violations found" true (Alias_check.check prog <> [])

let test_alias_global_harmless () =
  let prog =
    resolve
      "program main\ncommon /c/ g\ninteger g\ng = 1\ncall s(g)\nend\n\
       subroutine s(a)\ninteger a\nprint *, a\nend\n"
  in
  check Alcotest.int "no violations" 0 (List.length (Alias_check.check prog))

let test_alias_transitive_modification () =
  let prog =
    resolve
      "program main\ninteger n\nn = 1\ncall outer(n, n)\nend\n\
       subroutine outer(a, b)\ninteger a, b\ncall inner(a)\nprint *, b\nend\n\
       subroutine inner(x)\ninteger x\nx = 9\nend\n"
  in
  check Alcotest.bool "transitive violation found" true
    (Alias_check.check prog <> [])

let test_alias_do_variable_by_ref () =
  let prog =
    resolve
      "program main\ninteger i\ndo i = 1, 5\ncall bump(i)\nend do\nend\n\
       subroutine bump(x)\ninteger x\nx = x + 1\nend\n"
  in
  check Alcotest.bool "do-variable by-ref violation" true
    (Alias_check.check prog <> [])

let test_alias_do_variable_read_only_ok () =
  let prog =
    resolve
      "program main\ninteger i\ndo i = 1, 5\ncall look(i)\nend do\nend\n\
       subroutine look(x)\ninteger x\nprint *, x\nend\n"
  in
  check Alcotest.int "harmless do-variable arg" 0
    (List.length (Alias_check.check prog))

let test_suite_programs_conform () =
  List.iter
    (fun (e : Registry.entry) ->
      match Alias_check.check (Registry.program e) with
      | [] -> ()
      | vs ->
        fail
          (Fmt.str "%s has aliasing violations:@.%a" e.name
             (Fmt.list Alias_check.pp_violation) vs))
    Registry.entries

let prop_generated_programs_conform =
  QCheck2.Test.make ~name:"generated workloads are alias-free" ~count:80
    (QCheck2.Gen.int_range 1 10_000) (fun seed ->
      let prog =
        Workload.generate_resolved
          { Workload.default_spec with seed; num_globals = seed mod 4 }
      in
      Alias_check.check prog = [])

let suite =
  [
    ("cloning recovers constants", `Quick, test_cloning_recovers_constants);
    ("cloning preserves behaviour", `Quick, test_cloning_preserves_behaviour);
    ("cloning noop when agreeing", `Quick, test_cloning_noop_when_agreeing);
    ("cloning respects cap", `Quick, test_cloning_respects_cap);
    QCheck_alcotest.to_alcotest prop_cloning_preserves_behaviour;
    QCheck_alcotest.to_alcotest prop_cloning_monotone;
    ("alias: same var twice", `Quick, test_alias_same_var_twice);
    ("alias: same var twice unmodified", `Quick,
      test_alias_same_var_twice_unmodified_ok);
    ("alias: global to modifying callee", `Quick,
      test_alias_global_passed_to_modifying_callee);
    ("alias: global into modified formal", `Quick,
      test_alias_global_into_modified_formal);
    ("alias: harmless global", `Quick, test_alias_global_harmless);
    ("alias: transitive modification", `Quick, test_alias_transitive_modification);
    ("alias: do-variable by ref", `Quick, test_alias_do_variable_by_ref);
    ("alias: do-variable read-only", `Quick, test_alias_do_variable_read_only_ok);
    ("alias: suite programs conform", `Quick, test_suite_programs_conform);
    QCheck_alcotest.to_alcotest prop_generated_programs_conform;
  ]
