(* Unit tests for the MiniFort lexer, parser, semantic analysis and
   pretty-printer. *)

open Ipcp_frontend

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens src =
  List.map fst (Lexer.tokenize src)
  |> List.filter (fun t -> not (Token.equal t Token.NEWLINE))

let test_lex_simple () =
  match tokens "x = 1 + 2" with
  | [ IDENT "x"; EQUALS; INT 1; PLUS; INT 2; EOF ] -> ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_case_insensitive () =
  match tokens "CALL Foo(N)" with
  | [ KW_CALL; IDENT "foo"; LPAREN; IDENT "n"; RPAREN; EOF ] -> ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

(* Every keyword, in lower and upper case, lexes to its token; a
   near-miss — a keyword with a letter added or dropped — is an
   identifier. *)
let keyword_cases : (string * Token.t) list =
  [
    ("program", KW_PROGRAM); ("subroutine", KW_SUBROUTINE);
    ("function", KW_FUNCTION); ("integer", KW_INTEGER); ("real", KW_REAL);
    ("logical", KW_LOGICAL); ("common", KW_COMMON);
    ("parameter", KW_PARAMETER); ("data", KW_DATA); ("call", KW_CALL);
    ("if", KW_IF); ("then", KW_THEN); ("else", KW_ELSE);
    ("elseif", KW_ELSEIF); ("endif", KW_ENDIF); ("do", KW_DO);
    ("while", KW_WHILE); ("enddo", KW_ENDDO); ("goto", KW_GOTO);
    ("continue", KW_CONTINUE); ("return", KW_RETURN); ("stop", KW_STOP);
    ("end", KW_END); ("print", KW_PRINT); ("read", KW_READ);
  ]

let test_lex_keywords () =
  let lexes_to word expected =
    match tokens word with
    | [ t; EOF ] when Token.equal t expected -> ()
    | ts ->
      fail
        (Fmt.str "%S: expected %a, got %a" word Token.pp expected
           (Fmt.list ~sep:Fmt.sp Token.pp) ts)
  in
  List.iter
    (fun (word, tok) ->
      lexes_to word tok;
      lexes_to (String.uppercase_ascii word) tok;
      lexes_to (word ^ "x") (IDENT (word ^ "x"));
      let shorter = String.sub word 0 (String.length word - 1) in
      if not (List.mem_assoc shorter keyword_cases) then
        lexes_to shorter (IDENT shorter))
    keyword_cases;
  List.iter
    (fun word -> lexes_to word (IDENT word))
    [ "endx"; "dox"; "ifs"; "calls"; "programs"; "re"; "whilex" ]

let test_lex_dotted_ops () =
  match tokens "a .lt. b .and. .not. c .Ge. 2" with
  | [
   IDENT "a"; LT; IDENT "b"; AND; NOT; IDENT "c"; GE; INT 2; EOF;
  ] ->
    ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_real_vs_dotted () =
  (* "1.lt.2" must lex as INT 1, .lt., INT 2 — not as a real literal. *)
  match tokens "1.lt.2" with
  | [ INT 1; LT; INT 2; EOF ] -> ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_reals () =
  match tokens "x = 1.5 + 2. + .25 + 1e3 + 2.5d-1" with
  | [
   IDENT "x"; EQUALS; REAL a; PLUS; REAL b; PLUS; REAL c; PLUS; INT 1;
   IDENT "e3"; PLUS; REAL e; EOF;
  ] ->
    (* "1e3" without a decimal point lexes as INT 1 then identifier e3 —
       MiniFort requires a point in real literals, as F77 effectively does *)
    check (Alcotest.float 1e-9) "1.5" 1.5 a;
    check (Alcotest.float 1e-9) "2." 2.0 b;
    check (Alcotest.float 1e-9) ".25" 0.25 c;
    check (Alcotest.float 1e-9) "2.5d-1" 0.25 e
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_power () =
  match tokens "a ** 2 * b" with
  | [ IDENT "a"; POWER; INT 2; STAR; IDENT "b"; EOF ] -> ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_comment_and_continuation () =
  let src = "x = 1 + & ! trailing comment\n    2\ny = 3" in
  match tokens src with
  | [ IDENT "x"; EQUALS; INT 1; PLUS; INT 2; IDENT "y"; EQUALS; INT 3; EOF ] ->
    ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_string () =
  match tokens "print *, 'it''s fine'" with
  | [ KW_PRINT; STAR; COMMA; STRING "it's fine"; EOF ] -> ()
  | ts ->
    fail (Fmt.str "unexpected tokens: %a" (Fmt.list ~sep:Fmt.sp Token.pp) ts)

let test_lex_error_unterminated_string () =
  match Lexer.tokenize "x = 'oops" with
  | exception Loc.Error _ -> ()
  | _ -> fail "expected a lexer error"

let test_lex_newlines_collapse () =
  let all = List.map fst (Lexer.tokenize "a = 1\n\n\n\nb = 2\n") in
  let newlines =
    List.length (List.filter (fun t -> Token.equal t Token.NEWLINE) all)
  in
  check Alcotest.int "collapsed newlines" 2 newlines

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_unit_of src =
  match Parser.parse_program src with
  | [ u ] -> u
  | us -> fail (Fmt.str "expected one unit, got %d" (List.length us))

let test_parse_assignment_precedence () =
  let e = Parser.parse_expression "1 + 2 * 3" in
  match e.edesc with
  | Ebinop (Add, { edesc = Eint 1; _ }, { edesc = Ebinop (Mul, _, _); _ }) -> ()
  | _ -> fail "wrong precedence for 1 + 2 * 3"

let test_parse_power_right_assoc () =
  let e = Parser.parse_expression "2 ** 3 ** 2" in
  match e.edesc with
  | Ebinop (Pow, { edesc = Eint 2; _ }, { edesc = Ebinop (Pow, _, _); _ }) -> ()
  | _ -> fail "** must be right-associative"

let test_parse_unary_minus_power () =
  (* -x**2 parses as -(x**2) in FORTRAN *)
  let e = Parser.parse_expression "-x ** 2" in
  match e.edesc with
  | Eunop (Neg, { edesc = Ebinop (Pow, _, _); _ }) -> ()
  | _ -> fail "-x**2 must parse as -(x**2)"

let test_parse_relational_logical () =
  let e = Parser.parse_expression "a + 1 .gt. b .and. c .lt. d" in
  match e.edesc with
  | Ebinop (And, { edesc = Ebinop (Gt, _, _); _ }, { edesc = Ebinop (Lt, _, _); _ })
    ->
    ()
  | _ -> fail "relational must bind tighter than .and."

let test_parse_if_block () =
  let u =
    parse_unit_of
      "program t\nif (x .gt. 0) then\n  y = 1\nelse if (x .lt. 0) then\n  y = \
       2\nelse\n  y = 3\nend if\nend\n"
  in
  match u.ubody with
  | [ { sdesc = Sif ([ (_, [ _ ]); (_, [ _ ]) ], [ _ ]); _ } ] -> ()
  | _ -> fail "if/elseif/else shape wrong"

let test_parse_logical_if () =
  let u = parse_unit_of "program t\nif (x .gt. 0) goto 10\n10 continue\nend\n" in
  match u.ubody with
  | [
   { sdesc = Sif ([ (_, [ { sdesc = Sgoto 10; _ } ]) ], []); _ };
   { label = Some 10; sdesc = Scontinue; _ };
  ] ->
    ()
  | _ -> fail "logical if shape wrong"

let test_parse_do_loop () =
  let u =
    parse_unit_of "program t\ndo i = 1, 10, 2\n  s = s + i\nend do\nend\n"
  in
  match u.ubody with
  | [ { sdesc = Sdo ("i", _, _, Some _, [ _ ]); _ } ] -> ()
  | _ -> fail "do loop shape wrong"

let test_parse_do_while () =
  let u =
    parse_unit_of "program t\ndo while (i .lt. 10)\n  i = i + 1\nenddo\nend\n"
  in
  match u.ubody with
  | [ { sdesc = Sdowhile (_, [ _ ]); _ } ] -> ()
  | _ -> fail "do while shape wrong"

let test_parse_declarations () =
  let u =
    parse_unit_of
      "subroutine s(a, n)\ninteger a(10, 20), n\nreal x\ncommon /blk/ p, \
       q\nparameter (m = 3)\na(1, n) = m\nend\n"
  in
  check Alcotest.int "decl count" 4 (List.length u.udecls);
  match u.udecls with
  | [ Dtype (Tint, [ ("a", [ 10; 20 ]); ("n", []) ]); Dtype (Treal, [ ("x", []) ]);
      Dcommon ("blk", [ "p"; "q" ]); Dparameter [ ("m", _) ] ] ->
    ()
  | _ -> fail "declaration shapes wrong"

let test_parse_call_no_args () =
  let u = parse_unit_of "program t\ncall init\nend\n" in
  match u.ubody with
  | [ { sdesc = Scall ("init", []); _ } ] -> ()
  | _ -> fail "no-arg call shape wrong"

let test_parse_error_missing_endif () =
  match Parser.parse_program "program t\nif (x .gt. 0) then\ny = 1\nend\n" with
  | exception Loc.Error _ -> ()
  | _ -> fail "expected a parse error"

let test_parse_multiple_units () =
  let us =
    Parser.parse_program
      "program main\ncall f(1)\nend\n\nsubroutine f(x)\nx = x + 1\nend\n"
  in
  check Alcotest.int "unit count" 2 (List.length us)

(* ------------------------------------------------------------------ *)
(* Round-trip: resolve → print → resolve gives back the same program *)

(* What differs when [p1] is printed and the text resolved again: [None]
   when [main] and every procedure come back, each {!Prog.equal_proc} to
   the one printed. *)
let roundtrip_mismatch (p1 : Prog.t) : string option =
  let printed = Pretty.program_to_string p1 in
  match Sema.parse_and_resolve printed with
  | exception Loc.Error (l, m) ->
    Some (Fmt.str "reparse failed at %a: %s\nprinted:\n%s" Loc.pp l m printed)
  | p2 when p2.main <> p1.main || List.compare_lengths p1.procs p2.procs <> 0 ->
    Some
      (Fmt.str "main %s and %d procedures came back as main %s and %d"
         p1.main (List.length p1.procs) p2.main (List.length p2.procs))
  | p2 ->
    List.find_map
      (fun ((a : Prog.proc), b) ->
        if Prog.equal_proc a b then None
        else
          Some
            (Fmt.str "%s came back changed; printed:\n%a" a.pname
               Pretty.pp_proc a))
      (List.combine p1.procs p2.procs)

let roundtrip src =
  Option.iter fail (roundtrip_mismatch (Sema.parse_and_resolve src))

let test_roundtrip_example () =
  roundtrip
    "program main\n\
     integer n, a(5)\n\
     common /c/ g\n\
     parameter (k = 2 + 3)\n\
     n = k * 2\n\
     a(1) = n\n\
     if (n .gt. 0) then\n\
     call work(n, a)\n\
     else\n\
     n = -n ** 2\n\
     end if\n\
     do i = 1, n\n\
     g = g + i\n\
     end do\n\
     do while (g .gt. 0.5)\n\
     g = g / 2.0\n\
     end do\n\
     if (n .eq. 0) goto 99\n\
     print *, 'done', n\n\
     read *, m\n\
     99 continue\n\
     stop\n\
     end\n\n\
     subroutine work(n, a)\n\
     integer n, a(5)\n\
     a(n) = n\n\
     return\n\
     end\n"

(* ------------------------------------------------------------------ *)
(* Sema *)

let resolve src = Sema.parse_and_resolve src

let expect_sema_error src =
  match resolve src with
  | exception Loc.Error _ -> ()
  | _ -> fail "expected a semantic error"

let test_sema_implicit_typing () =
  let p = resolve "program t\nival = 1\nxval = 2.0\nend\n" in
  let main = Prog.find_proc_exn p "t" in
  let find n = List.find (fun (v : Prog.var) -> v.vname = n) main.plocals in
  check Alcotest.bool "ival integer" true ((find "ival").vty = Prog.Tint);
  check Alcotest.bool "xval real" true ((find "xval").vty = Prog.Treal)

let test_sema_formals_resolved () =
  let p =
    resolve
      "program t\ncall s(1, 2.0)\nend\nsubroutine s(n, x)\nreal x\nn = 1\nend\n"
  in
  let s = Prog.find_proc_exn p "s" in
  (match s.pformals with
  | [ { vkind = Kformal 0; vty = Tint; _ }; { vkind = Kformal 1; vty = Treal; _ } ]
    ->
    ()
  | _ -> fail "formals wrong");
  check Alcotest.int "no locals" 0 (List.length s.plocals)

let test_sema_array_vs_call () =
  let p =
    resolve
      "program t\n\
       integer a(10)\n\
       a(1) = f(2)\n\
       end\n\
       function f(x)\n\
       integer f, x\n\
       f = x * 2\n\
       end\n"
  in
  let main = Prog.find_proc_exn p "t" in
  let saw_call = ref false and saw_arr = ref false in
  Prog.iter_exprs
    (fun e ->
      match e.edesc with
      | Ecall ("f", _) -> saw_call := true
      | Earr _ -> saw_arr := true
      | _ -> ())
    main.pbody;
  (* the lhs a(1) is an Larr, not an expr; rhs f(2) is a call *)
  check Alcotest.bool "call resolved" true !saw_call

let test_sema_common_identity () =
  let p =
    resolve
      "program t\n\
       common /blk/ x, n\n\
       integer n\n\
       n = 1\n\
       call s\n\
       end\n\
       subroutine s\n\
       common /blk/ y, m\n\
       integer m\n\
       m = 2\n\
       end\n"
  in
  let t = Prog.find_proc_exn p "t" and s = Prog.find_proc_exn p "s" in
  let g1 = List.map snd t.pglobals and g2 = List.map snd s.pglobals in
  check Alcotest.int "two members" 2 (List.length g1);
  List.iter2
    (fun (a : Prog.global) (b : Prog.global) ->
      check Alcotest.bool "same identity" true (Prog.equal_global a b))
    g1 g2

let test_sema_common_mismatch () =
  expect_sema_error
    "program t\ncommon /blk/ x, n\ninteger n\nend\nsubroutine s\ncommon /blk/ \
     y\nend\n"

let test_sema_common_type_mismatch () =
  expect_sema_error
    "program t\ncommon /blk/ n\ninteger n\nend\nsubroutine s\ncommon /blk/ \
     y\nend\n"

let test_sema_parameter_folding () =
  let p = resolve "program t\nparameter (n = 4 * 5)\ni = n + 1\nend\n" in
  let main = Prog.find_proc_exn p "t" in
  let found = ref false in
  Prog.iter_exprs
    (fun e -> match e.edesc with Cint 20 -> found := true | _ -> ())
    main.pbody;
  check Alcotest.bool "parameter folded to 20" true !found

let test_sema_arity_mismatch () =
  expect_sema_error "program t\ncall s(1)\nend\nsubroutine s(a, b)\nend\n"

let test_sema_type_mismatch_arg () =
  expect_sema_error
    "program t\ncall s(1.5)\nend\nsubroutine s(n)\nn = 1\nend\n"

let test_sema_unknown_subroutine () =
  expect_sema_error "program t\ncall nosuch(1)\nend\n"

let test_sema_function_called_as_subroutine () =
  expect_sema_error
    "program t\ncall f(1)\nend\nfunction f(x)\nf = x\nend\n"

let test_sema_goto_undefined_label () =
  expect_sema_error "program t\ngoto 42\nend\n"

let test_sema_duplicate_label () =
  expect_sema_error "program t\n10 continue\n10 continue\nend\n"

let test_sema_no_main () =
  expect_sema_error "subroutine s\nend\n"

let test_sema_two_mains () =
  expect_sema_error "program a\nend\nprogram b\nend\n"

let test_sema_duplicate_unit () =
  expect_sema_error "program t\nend\nsubroutine s\nend\nsubroutine s\nend\n"

let test_sema_array_without_subscript () =
  expect_sema_error "program t\ninteger a(5)\nx = a + 1\nend\n"

let test_sema_subscript_count () =
  expect_sema_error "program t\ninteger a(5, 5)\na(1) = 0\nend\n"

let test_sema_logical_mix () =
  expect_sema_error "program t\nn = 1 .and. 2\nend\n"

let test_sema_do_var_real () =
  expect_sema_error "program t\ndo x = 1, 5\nend do\nend\n"

(* FORTRAN 77 §11.10.5: the do-variable cannot be redefined while active *)
let test_sema_do_var_assigned_in_loop () =
  expect_sema_error "program t\ndo i = 1, 5\ni = 2\nend do\nend\n"

let test_sema_do_var_nested_reuse () =
  expect_sema_error
    "program t\ndo i = 1, 5\ndo i = 1, 3\nend do\nend do\nend\n"

let test_sema_do_var_read_target () =
  expect_sema_error "program t\ndo i = 1, 5\nread *, i\nend do\nend\n"

let test_sema_do_var_assigned_in_nested_if () =
  expect_sema_error
    "program t\ninteger m\nm = 1\ndo i = 1, 5\nif (m .gt. 0) then\ni = \
     0\nend if\nend do\nend\n"

let test_sema_do_var_free_after_loop () =
  (* after the loop the variable is ordinary again *)
  let p =
    resolve "program t\ndo i = 1, 5\nend do\ni = 9\nprint *, i\nend\n"
  in
  check Alcotest.int "resolved" 1 (List.length p.procs)

let test_sema_whole_array_arg () =
  let p =
    resolve
      "program t\n\
       integer a(8)\n\
       call s(a, 8)\n\
       end\n\
       subroutine s(b, n)\n\
       integer b(8), n\n\
       b(1) = n\n\
       end\n"
  in
  let main = Prog.find_proc_exn p "t" in
  match Prog.call_sites main with
  | [ { cs_args = [ { edesc = Evar v; _ }; _ ]; _ } ] ->
    check Alcotest.bool "whole array actual" true (Prog.is_array v)
  | _ -> fail "call site shape wrong"

let test_sema_recursive_function_allowed () =
  let p =
    resolve
      "program t\n\
       i = fact(5)\n\
       end\n\
       function fact(n)\n\
       integer fact, n\n\
       if (n .le. 1) then\n\
       fact = 1\n\
       else\n\
       fact = n * fact(n - 1)\n\
       end if\n\
       end\n"
  in
  check Alcotest.int "two procs" 2 (List.length p.procs)

let test_sema_call_sites_include_function_calls () =
  let p =
    resolve
      "program t\n\
       i = f(1) + f(2)\n\
       call s(i)\n\
       end\n\
       function f(x)\ninteger f, x\nf = x\nend\n\
       subroutine s(x)\ninteger x\nx = 0\nend\n"
  in
  let main = Prog.find_proc_exn p "t" in
  check Alcotest.int "three call sites" 3 (List.length (Prog.call_sites main))

(* Common aliases that differ between units, typed and implicit. *)
let test_resolved_print_reparses () =
  roundtrip
    "program main\n\
     integer n, a(4)\n\
     common /cfg/ size, scale\n\
     integer size\n\
     n = 10\n\
     size = 3\n\
     a(2) = n\n\
     call grind(n, a)\n\
     end\n\
     subroutine grind(k, arr)\n\
     integer k, arr(4)\n\
     common /cfg/ sz, sc\n\
     integer sz\n\
     arr(1) = k + sz\n\
     end\n"

(* The printer declares every local in [plocals] order, so no program
   comes back with its locals reordered. *)
let test_roundtrip_suite_and_generated () =
  List.iter
    (fun (e : Ipcp_suite.Registry.entry) -> roundtrip e.source)
    Ipcp_suite.Registry.entries;
  roundtrip
    (Ipcp_suite.Workload.generate
       {
         Ipcp_suite.Workload.default_spec with
         seed = 42;
         num_procs = 1600;
         stmts_per_proc = 10;
       })

(* compare_param and Symbolic.compare_leaf spell out Stdlib.compare's
   order: formals before globals, then by position or by key. *)
let test_param_orders () =
  let check_order show cmp values =
    let sign x = compare x 0 in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            check Alcotest.int
              (Fmt.str "compare %s %s" (show a) (show b))
              (sign (Stdlib.compare a b))
              (sign (cmp a b)))
          values)
      values
  in
  let positions = [ min_int; -1; 0; 1; 2; 10; max_int ] in
  let keys = [ ""; "a"; "a:1"; "a:10"; "a:2"; "b:0"; "gc:1"; "gc:10"; "gc:9" ] in
  check_order
    (function
      | Prog.Pformal i -> Fmt.str "Pformal %d" i
      | Prog.Pglob k -> Fmt.str "Pglob %S" k)
    Prog.compare_param
    (List.map (fun i -> Prog.Pformal i) positions
    @ List.map (fun k -> Prog.Pglob k) keys);
  let module S = Ipcp_analysis.Symbolic in
  check_order
    (function
      | S.Lformal i -> Fmt.str "Lformal %d" i
      | S.Lglobal k -> Fmt.str "Lglobal %S" k)
    S.compare_leaf
    (List.map (fun i -> S.Lformal i) positions
    @ List.map (fun k -> S.Lglobal k) keys)

(* Tokens stream from the lexer into the parser, so the frontend's minor
   allocation per token does not grow with the program.  Counted in
   words, not time, so the test is as stable as the allocator: building
   the whole token list first took 32 words per token, streaming 25. *)
let test_frontend_allocation_contract () =
  let bound = 30.0 in
  List.iter
    (fun procs ->
      let src =
        Ipcp_suite.Workload.generate
          {
            Ipcp_suite.Workload.default_spec with
            seed = 42;
            num_procs = procs;
            stmts_per_proc = 10;
          }
      in
      let tokens = List.length (Lexer.tokenize src) in
      let before = Gc.minor_words () in
      (match Sema.check src with
      | Ok _ -> ()
      | Error _ -> fail "generated program has diagnostics");
      let per_token = (Gc.minor_words () -. before) /. float_of_int tokens in
      if per_token > bound then
        Alcotest.failf
          "Sema.check: %.1f minor words per token at %d procedures (bound \
           %.0f)"
          per_token procs bound)
    [ 200; 1600 ]

let suite =
  [
    ("lex simple", `Quick, test_lex_simple);
    ("lex case insensitive", `Quick, test_lex_case_insensitive);
    ("lex keyword table", `Quick, test_lex_keywords);
    ("lex dotted operators", `Quick, test_lex_dotted_ops);
    ("lex 1.lt.2 disambiguation", `Quick, test_lex_real_vs_dotted);
    ("lex real literals", `Quick, test_lex_reals);
    ("lex power operator", `Quick, test_lex_power);
    ("lex comments and continuation", `Quick, test_lex_comment_and_continuation);
    ("lex string escapes", `Quick, test_lex_string);
    ("lex unterminated string", `Quick, test_lex_error_unterminated_string);
    ("lex newline collapsing", `Quick, test_lex_newlines_collapse);
    ("parse precedence", `Quick, test_parse_assignment_precedence);
    ("parse power right-assoc", `Quick, test_parse_power_right_assoc);
    ("parse -x**2", `Quick, test_parse_unary_minus_power);
    ("parse relational vs logical", `Quick, test_parse_relational_logical);
    ("parse if block", `Quick, test_parse_if_block);
    ("parse logical if", `Quick, test_parse_logical_if);
    ("parse do loop", `Quick, test_parse_do_loop);
    ("parse do while", `Quick, test_parse_do_while);
    ("parse declarations", `Quick, test_parse_declarations);
    ("parse call without args", `Quick, test_parse_call_no_args);
    ("parse missing endif", `Quick, test_parse_error_missing_endif);
    ("parse multiple units", `Quick, test_parse_multiple_units);
    ("roundtrip example", `Quick, test_roundtrip_example);
    ("sema implicit typing", `Quick, test_sema_implicit_typing);
    ("sema formals", `Quick, test_sema_formals_resolved);
    ("sema array vs call", `Quick, test_sema_array_vs_call);
    ("sema common identity", `Quick, test_sema_common_identity);
    ("sema common length mismatch", `Quick, test_sema_common_mismatch);
    ("sema common type mismatch", `Quick, test_sema_common_type_mismatch);
    ("sema parameter folding", `Quick, test_sema_parameter_folding);
    ("sema arity mismatch", `Quick, test_sema_arity_mismatch);
    ("sema argument type mismatch", `Quick, test_sema_type_mismatch_arg);
    ("sema unknown subroutine", `Quick, test_sema_unknown_subroutine);
    ("sema function as subroutine", `Quick, test_sema_function_called_as_subroutine);
    ("sema goto undefined label", `Quick, test_sema_goto_undefined_label);
    ("sema duplicate label", `Quick, test_sema_duplicate_label);
    ("sema no main", `Quick, test_sema_no_main);
    ("sema two mains", `Quick, test_sema_two_mains);
    ("sema duplicate unit", `Quick, test_sema_duplicate_unit);
    ("sema array without subscript", `Quick, test_sema_array_without_subscript);
    ("sema subscript count", `Quick, test_sema_subscript_count);
    ("sema logical/numeric mix", `Quick, test_sema_logical_mix);
    ("sema real do variable", `Quick, test_sema_do_var_real);
    ("sema do var assigned in loop", `Quick, test_sema_do_var_assigned_in_loop);
    ("sema do var nested reuse", `Quick, test_sema_do_var_nested_reuse);
    ("sema do var read target", `Quick, test_sema_do_var_read_target);
    ("sema do var assigned in nested if", `Quick,
      test_sema_do_var_assigned_in_nested_if);
    ("sema do var free after loop", `Quick, test_sema_do_var_free_after_loop);
    ("sema whole array argument", `Quick, test_sema_whole_array_arg);
    ("sema recursion allowed", `Quick, test_sema_recursive_function_allowed);
    ("sema call sites incl. function calls", `Quick,
      test_sema_call_sites_include_function_calls);
    ("resolved print reparses", `Quick, test_resolved_print_reparses);
    ("resolved print round-trips the suite and 1600 procedures", `Quick,
     test_roundtrip_suite_and_generated);
    ("param and leaf orders match Stdlib.compare", `Quick, test_param_orders);
    ("frontend allocation contract at 200 and 1600 procedures", `Quick,
     test_frontend_allocation_contract);
  ]
