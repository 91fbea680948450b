(* Tests for the miniature dependence tester (the paper's §1 motivation):
   affine subscript recognition and the GCD test, with and without
   interprocedural constant information. *)

open Ipcp_frontend
open Ipcp_analysis
open Ipcp_core

let check = Alcotest.check
let fail = Alcotest.fail

let no_consts (_ : Prog.proc) (_ : Prog.var) = None

let analyze ?(const_of = no_consts) src =
  Dependence.analyze_program ~const_of (Sema.parse_and_resolve src)

(* ------------------------------------------------------------------ *)
(* affine recognition *)

let affine_of src =
  (* parse a single-loop program and classify its one write subscript *)
  let reports = analyze src in
  match reports with
  | [ r ] -> (
    match
      List.find_opt (fun (a : Dependence.access) -> a.acc_is_write) r.lr_accesses
    with
    | Some a -> a.acc_subscript
    | None -> fail "no write access found")
  | _ -> fail "expected exactly one loop"

let loop_with subscript =
  Fmt.str
    "program t\ninteger a(100), i\ndo i = 1, 9\na(%s) = i\nend do\nend\n"
    subscript

let test_affine_plain_i () =
  match affine_of (loop_with "i") with
  | Dependence.Affine { coeff = 1; offset = 0 } -> ()
  | _ -> fail "a(i) should be affine 1*i+0"

let test_affine_scaled () =
  match affine_of (loop_with "3 * i - 2") with
  | Dependence.Affine { coeff = 3; offset = -2 } -> ()
  | _ -> fail "a(3i-2) should be affine"

let test_affine_reversed_mul () =
  match affine_of (loop_with "i * 4 + 1") with
  | Dependence.Affine { coeff = 4; offset = 1 } -> ()
  | _ -> fail "a(i*4+1) should be affine"

let test_affine_constant_subscript () =
  match affine_of (loop_with "7") with
  | Dependence.Affine { coeff = 0; offset = 7 } -> ()
  | _ -> fail "a(7) should be affine 0*i+7"

let test_nonlinear_i_squared () =
  match affine_of (loop_with "i * i") with
  | Dependence.Nonlinear -> ()
  | _ -> fail "a(i*i) is nonlinear"

let test_nonlinear_unknown_symbol () =
  (* m is a formal with unknown value *)
  let reports =
    analyze
      "program t\ninteger n\nn = 0\nread *, n\ncall s(n)\nend\nsubroutine \
       s(m)\ninteger m, a(100), i\ndo i = 1, 9\na(m * i) = i\nend \
       do\nprint *, a(1)\nend\n"
  in
  match reports with
  | [ r ] -> (
    match r.lr_accesses with
    | [ { acc_subscript = Dependence.Nonlinear; _ } ] -> ()
    | _ -> fail "a(m*i) with unknown m must be nonlinear")
  | _ -> fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* the GCD test *)

let test_gcd_independent () =
  (* a(2i) vs a(2i+1): stride 2, offsets of different parity *)
  check Alcotest.bool "2i vs 2i+1 independent" true
    (Dependence.gcd_test { coeff = 2; offset = 0 } { coeff = 2; offset = 1 }
    = `Independent)

let test_gcd_possible () =
  check Alcotest.bool "2i vs 2i+4 possibly dependent" true
    (Dependence.gcd_test { coeff = 2; offset = 0 } { coeff = 2; offset = 4 }
    = `Possible)

let test_gcd_zero_coeffs () =
  check Alcotest.bool "a(5) vs a(5) dependent" true
    (Dependence.gcd_test { coeff = 0; offset = 5 } { coeff = 0; offset = 5 }
    = `Possible);
  check Alcotest.bool "a(5) vs a(6) independent" true
    (Dependence.gcd_test { coeff = 0; offset = 5 } { coeff = 0; offset = 6 }
    = `Independent)

let test_gcd_mixed_strides () =
  (* 4i vs 6j: gcd 2 divides any even difference *)
  check Alcotest.bool "4i vs 6j+1 independent" true
    (Dependence.gcd_test { coeff = 4; offset = 0 } { coeff = 6; offset = 1 }
    = `Independent);
  check Alcotest.bool "4i vs 6j+2 possible" true
    (Dependence.gcd_test { coeff = 4; offset = 0 } { coeff = 6; offset = 2 }
    = `Possible)

(* ------------------------------------------------------------------ *)
(* end to end: interprocedural constants make subscripts analyzable *)

let shen_li_yew_src =
  "program main\n\
   call kernel(2, 1)\n\
   end\n\
   subroutine kernel(m, k)\n\
   integer m, k, i, a(64)\n\
   do i = 1, 64\n\
   a(i) = 0\n\
   end do\n\
   do i = 1, 10\n\
   a(m * i + k) = a(m * i) + 1\n\
   end do\n\
   print *, a(3)\n\
   end\n"

let test_constants_linearize () =
  let prog = Sema.parse_and_resolve shen_li_yew_src in
  let t = Driver.analyze Config.polynomial_with_mod prog in
  let const_of (proc : Prog.proc) (v : Prog.var) =
    match v.vkind with
    | Prog.Kformal i ->
      Copy_lattice.const_value
        (Solver.lookup t.solution proc.pname (Prog.Pformal i))
    | _ -> None
  in
  let without = Dependence.analyze_program ~const_of:no_consts prog in
  let with_ = Dependence.analyze_program ~const_of prog in
  let _, nl_without = Dependence.subscript_totals without in
  let affine_with, nl_with = Dependence.subscript_totals with_ in
  check Alcotest.bool "nonlinear without constants" true (nl_without > 0);
  check Alcotest.int "all linear with constants" 0 nl_with;
  check Alcotest.bool "affine count grew" true (affine_with > 0);
  (* and the interesting loop is proven independent *)
  let interesting =
    List.find
      (fun (r : Dependence.loop_report) ->
        List.exists (fun (a : Dependence.access) -> a.acc_is_write) r.lr_accesses
        && List.length r.lr_accesses > 1)
      with_
  in
  check Alcotest.int "one independent pair" 1 interesting.lr_independent_pairs;
  check Alcotest.int "no unknown pairs" 0 interesting.lr_unknown_pairs

let test_dependent_pair_detected () =
  (* a(i) written and a(i-1) read: genuinely dependent, GCD can't rule out *)
  let reports =
    analyze
      "program t\ninteger a(100), i\na(1) = 1\ndo i = 2, 50\na(i) = a(i - 1) \
       + 1\nend do\nprint *, a(50)\nend\n"
  in
  let r =
    List.find
      (fun (r : Dependence.loop_report) -> r.lr_accesses <> [])
      reports
  in
  check Alcotest.bool "dependence detected" true (r.lr_dependent_pairs > 0)

let suite =
  [
    ("affine: i", `Quick, test_affine_plain_i);
    ("affine: 3i-2", `Quick, test_affine_scaled);
    ("affine: i*4+1", `Quick, test_affine_reversed_mul);
    ("affine: constant", `Quick, test_affine_constant_subscript);
    ("nonlinear: i*i", `Quick, test_nonlinear_i_squared);
    ("nonlinear: unknown symbol", `Quick, test_nonlinear_unknown_symbol);
    ("gcd: independent", `Quick, test_gcd_independent);
    ("gcd: possible", `Quick, test_gcd_possible);
    ("gcd: constant subscripts", `Quick, test_gcd_zero_coeffs);
    ("gcd: mixed strides", `Quick, test_gcd_mixed_strides);
    ("constants linearize subscripts", `Quick, test_constants_linearize);
    ("real dependence detected", `Quick, test_dependent_pair_detected);
  ]
