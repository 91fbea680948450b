(* Golden regression test: the exact Table 2 / Table 3 values on the
   bundled suite.  The suite programs and the analyzer are both
   deterministic, so any change here is a real behaviour change — either a
   bug or an intentional revision of the suite/analyzer, in which case
   update the expected rows below AND re-check the shape assertions in
   test_suite.ml and the narrative in EXPERIMENTS.md. *)

open Ipcp_suite

let check = Alcotest.check

(* program, poly+ret, pass+ret, intra+ret, lit+ret, poly-ret, pass-ret *)
let expected_table2 =
  [
    ("adm", 111, 111, 111, 111, 111, 111);
    ("doduc", 201, 201, 201, 195, 198, 198);
    ("fpppp", 85, 85, 70, 52, 81, 81);
    ("linpackd", 90, 90, 90, 75, 90, 90);
    ("matrix300", 46, 46, 32, 30, 46, 46);
    ("mdg", 38, 38, 36, 25, 35, 35);
    ("ocean", 110, 110, 110, 46, 45, 45);
    ("qcd", 94, 94, 94, 93, 93, 93);
    ("simple", 101, 101, 94, 84, 101, 101);
    ("snasa7", 131, 131, 131, 91, 131, 131);
    ("spec77", 49, 49, 49, 35, 48, 48);
    ("trfd", 24, 24, 23, 21, 24, 24);
  ]

(* program, no-mod, with-mod, complete, intra-only *)
let expected_table3 =
  [
    ("adm", 31, 111, 111, 82);
    ("doduc", 197, 201, 201, 1);
    ("fpppp", 61, 85, 85, 36);
    ("linpackd", 11, 90, 90, 69);
    ("matrix300", 5, 46, 46, 27);
    ("mdg", 23, 38, 38, 18);
    ("ocean", 45, 110, 116, 20);
    ("qcd", 93, 94, 94, 91);
    ("simple", 14, 101, 101, 76);
    ("snasa7", 120, 131, 131, 91);
    ("spec77", 40, 49, 56, 25);
    ("trfd", 17, 24, 24, 16);
  ]

let test_table2_golden () =
  List.iter2
    (fun (r : Tables.table2_row) (name, poly, pass, intra, lit, npoly, npass) ->
      check Alcotest.string "program" name r.t2_name;
      check Alcotest.int (name ^ " poly+ret") poly r.ret_poly;
      check Alcotest.int (name ^ " pass+ret") pass r.ret_pass;
      check Alcotest.int (name ^ " intra+ret") intra r.ret_intra;
      check Alcotest.int (name ^ " lit+ret") lit r.ret_lit;
      check Alcotest.int (name ^ " poly-ret") npoly r.noret_poly;
      check Alcotest.int (name ^ " pass-ret") npass r.noret_pass)
    (List.map (fun (r2, _, _) -> r2) (Tables.table23 ())) expected_table2

let test_table3_golden () =
  List.iter2
    (fun (r : Tables.table3_row) (name, nomod, withmod, complete, intra) ->
      check Alcotest.string "program" name r.t3_name;
      check Alcotest.int (name ^ " no-mod") nomod r.poly_no_mod;
      check Alcotest.int (name ^ " with-mod") withmod r.poly_mod;
      check Alcotest.int (name ^ " complete") complete r.complete;
      check Alcotest.int (name ^ " intra-only") intra r.intra_only)
    (List.map (fun (_, r3, _) -> r3) (Tables.table23 ())) expected_table3

(* The rendered copy-mode tables, pinned byte for byte: Tables 1–3 are
   the const golden's, and Table 4 adds each program's copy facts. *)
let test_tables_copy_golden () =
  let golden =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "goldens/tables_copy.txt"
  in
  let ic = open_in_bin golden in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let o = Ipcp_serve.Jobs.tables ~analysis:`Copy ~jobs:1 () in
  check Alcotest.int "exit code" 0 o.code;
  check Alcotest.string "tables --analysis copy" expected o.out

let suite =
  [
    ("table 2 golden values", `Quick, test_table2_golden);
    ("table 3 golden values", `Quick, test_table3_golden);
    ("copy tables golden", `Quick, test_tables_copy_golden);
  ]
