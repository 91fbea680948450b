(* Multi-error diagnostics: the Diagnostics accumulator itself, and
   frontend recovery — one Sema.check pass surfaces every independent
   lexical, syntax and semantic problem instead of stopping at the
   first. *)

open Ipcp_frontend
module D = Ipcp_support.Diagnostics

let check = Alcotest.check

(* ---- the accumulator ---- *)

let test_accumulator_counts () =
  let d = D.create () in
  check Alcotest.bool "fresh is empty" true (D.is_empty d);
  D.add d (D.diagnostic ~file:"a.f" ~line:1 ~col:2 ~code:"E-PARSE" "first");
  D.add d
    (D.diagnostic ~severity:D.Warning ~file:"a.f" ~line:3 ~col:4
       ~code:"W-TEST" "second");
  D.add d (D.diagnostic ~file:"b.f" ~line:5 ~col:6 ~code:"E-SEMA" "third");
  check Alcotest.int "count" 3 (D.count d);
  check Alcotest.int "errors" 2 (D.error_count d);
  check Alcotest.int "warnings" 1 (D.warning_count d);
  check Alcotest.bool "not empty" false (D.is_empty d)

let test_report_order_and_format () =
  let d = D.create () in
  D.add d (D.diagnostic ~file:"x.f" ~line:2 ~col:7 ~code:"E-PARSE" "boom");
  D.add d
    (D.diagnostic ~severity:D.Warning ~file:"x.f" ~line:9 ~col:1 ~code:"W-X"
       "later");
  check Alcotest.string "rendered, report order"
    "x.f:2:7: error[E-PARSE]: boom\nx.f:9:1: warning[W-X]: later\n"
    (Fmt.str "%a" D.pp d);
  check Alcotest.string "summary" "1 error(s), 1 warning(s)"
    (Fmt.str "%a" D.pp_summary d)

(* ---- frontend recovery ---- *)

let diags_of src =
  match Sema.check ~file:"t.f" src with
  | Ok _ -> Alcotest.fail "expected diagnostics"
  | Error d -> d

let codes d = List.map (fun (i : D.diagnostic) -> i.d_code) (D.to_list d)

(* the acceptance program: three independent problems, one pass *)
let test_multi_error_program () =
  let d =
    diags_of
      "program main\ninteger x\nx = )\nx = 3 +\ncall nosuch(1)\nend\n"
  in
  check Alcotest.bool "at least 3 diagnostics" true (D.count d >= 3);
  check Alcotest.bool "parse errors present" true
    (List.mem "E-PARSE" (codes d));
  check Alcotest.bool "semantic error present" true
    (List.mem "E-SEMA" (codes d));
  (* each is independently located *)
  let lines = List.map (fun (i : D.diagnostic) -> i.d_line) (D.to_list d) in
  check Alcotest.bool "errors on three distinct lines" true
    (List.length (List.sort_uniq compare lines) >= 3)

let test_lexical_recovery () =
  (* bad characters on two lines: both reported, parsing continues *)
  let d = diags_of "program main\ninteger x\nx = 1 @ 2\nx = ?\nend\n" in
  let lex =
    List.filter (fun (i : D.diagnostic) -> i.d_code = "E-LEX") (D.to_list d)
  in
  check Alcotest.bool "two lexical errors" true (List.length lex >= 2)

(* Tokens stream into the parser, so the lexer meets line 4's bad
   character after the parser has reported line 3; the report still lists
   every lexical error ahead of the syntax errors. *)
let test_lexical_errors_listed_first () =
  let d = diags_of "program main\ninteger x\nx = )\nx = 1 @ 2\nend\n" in
  check Alcotest.string "E-LEX first, in report order"
    "t.f:4:7: error[E-LEX]: unexpected character '@'\n\
     t.f:3:5: error[E-PARSE]: expected an expression but found )\n"
    (Fmt.str "%a" D.pp d)

let test_unit_boundary_recovery () =
  (* a broken subroutine header must not swallow its sibling units'
     problems: main still resolves, and the later unknown call is seen *)
  let d =
    diags_of
      "program main\n\
       integer x\n\
       x = 1\n\
       call gone(x)\n\
       end\n\
       subroutine broken(\n\
       integer y\n\
       end\n"
  in
  check Alcotest.bool "parse error of broken unit reported" true
    (List.mem "E-PARSE" (codes d));
  check Alcotest.bool "semantic error of main reported too" true
    (List.mem "E-SEMA" (codes d))

let test_statement_recovery_keeps_unit () =
  (* statement-level errors are dropped; the surrounding unit still
     resolves, so no cascading unknown-procedure error appears *)
  let d =
    diags_of
      "program main\n\
       integer x\n\
       x = )\n\
       call work(1)\n\
       end\n\
       subroutine work(k)\n\
       integer k\n\
       k = (\n\
       end\n"
  in
  check Alcotest.bool "both statement errors reported" true
    (List.length
       (List.filter (fun (i : D.diagnostic) -> i.d_code = "E-PARSE")
          (D.to_list d))
    >= 2);
  check Alcotest.bool "no cascading unknown-subroutine error" false
    (List.exists
       (fun (i : D.diagnostic) ->
         i.d_code = "E-SEMA"
         &&
         let n = String.length i.d_message in
         let needle = "work" in
         let m = String.length needle in
         let rec go j =
           j + m <= n && (String.sub i.d_message j m = needle || go (j + 1))
         in
         go 0)
       (D.to_list d))

let test_clean_program_is_ok () =
  match
    Sema.check
      "program main\ninteger n\nn = 2\ncall p(n)\nend\nsubroutine p(a)\n\
       integer a\nprint *, a\nend\n"
  with
  | Ok prog ->
    check Alcotest.int "both units resolved" 2
      (List.length prog.Prog.procs)
  | Error d -> Alcotest.fail (Fmt.str "unexpected diagnostics:@.%a" D.pp d)

let test_recovery_deterministic () =
  let src = "program main\ninteger x\nx = )\nx = 3 +\ncall nosuch(1)\nend\n" in
  let render () = Fmt.str "%a" D.pp (diags_of src) in
  check Alcotest.string "same diagnostics on every run" (render ()) (render ())

let suite =
  [
    ("diagnostics accumulator", `Quick, test_accumulator_counts);
    ("diagnostics format and order", `Quick, test_report_order_and_format);
    ("multi-error program (>=3)", `Quick, test_multi_error_program);
    ("lexical recovery", `Quick, test_lexical_recovery);
    ("lexical errors listed first", `Quick, test_lexical_errors_listed_first);
    ("unit boundary recovery", `Quick, test_unit_boundary_recovery);
    ("statement recovery keeps unit", `Quick,
     test_statement_recovery_keeps_unit);
    ("clean program is Ok", `Quick, test_clean_program_is_ok);
    ("recovery deterministic", `Quick, test_recovery_deterministic);
  ]
