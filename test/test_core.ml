(* End-to-end tests for the interprocedural constant propagation core:
   call graph, MOD/REF, jump functions of all four kinds, return jump
   functions, the solver, and the substitution metric. *)

open Ipcp_frontend
open Ipcp_core
module Complete = Ipcp_incr.Complete

let check = Alcotest.check
let fail = Alcotest.fail

let resolve = Sema.parse_and_resolve

let analyze ?(config = Config.default) src = Driver.analyze config (resolve src)

(* Find the constant value of parameter [name] of procedure [proc]. *)
let const_of (t : Driver.t) proc_name param_name : int option =
  let proc = Prog.find_proc_exn t.prog proc_name in
  Solver.constants_of t.solution proc_name
  |> List.find_map (fun (param, c) ->
         if Prog.param_name t.prog proc param = param_name then Some c else None)

let expect_const t proc param value =
  match const_of t proc param with
  | Some c -> check Alcotest.int (proc ^ "." ^ param) value c
  | None -> fail (Fmt.str "%s.%s: expected constant %d, got none" proc param value)

let expect_no_const t proc param =
  match const_of t proc param with
  | None -> ()
  | Some c -> fail (Fmt.str "%s.%s: expected non-constant, got %d" proc param c)

(* ------------------------------------------------------------------ *)
(* Call graph *)

let chain_src =
  "program main\n\
   call a(1)\n\
   end\n\
   subroutine a(x)\ninteger x\ncall b(x)\nend\n\
   subroutine b(y)\ninteger y\ncall c(y)\nend\n\
   subroutine c(z)\ninteger z\nprint *, z\nend\n"

let test_callgraph_edges () =
  let cg = Callgraph.build (resolve chain_src) in
  check Alcotest.int "edge count" 3 (List.length cg.edges);
  check Alcotest.int "a's callees" 1 (List.length (Callgraph.callees_of cg "a"));
  check Alcotest.int "c's callers" 1 (List.length (Callgraph.callers_of cg "c"))

let test_callgraph_bottom_up () =
  let cg = Callgraph.build (resolve chain_src) in
  let order = Callgraph.bottom_up cg in
  let pos n =
    match List.find_index (String.equal n) order with
    | Some i -> i
    | None -> fail ("missing " ^ n)
  in
  check Alcotest.bool "c before b" true (pos "c" < pos "b");
  check Alcotest.bool "b before a" true (pos "b" < pos "a");
  check Alcotest.bool "a before main" true (pos "a" < pos "main")

let test_callgraph_recursion_scc () =
  let src =
    "program main\ncall a(3)\nend\n\
     subroutine a(x)\ninteger x\nif (x .gt. 0) call b(x - 1)\nend\n\
     subroutine b(y)\ninteger y\ncall a(y)\nend\n"
  in
  let cg = Callgraph.build (resolve src) in
  check Alcotest.bool "a in cycle" true (Callgraph.in_cycle cg "a");
  check Alcotest.bool "b in cycle" true (Callgraph.in_cycle cg "b");
  check Alcotest.bool "main not in cycle" false (Callgraph.in_cycle cg "main")

let test_callgraph_multiedge () =
  let src =
    "program main\ncall s(1)\ncall s(2)\nend\nsubroutine s(x)\ninteger \
     x\nprint *, x\nend\n"
  in
  let cg = Callgraph.build (resolve src) in
  check Alcotest.int "two edges to s" 2 (List.length (Callgraph.callers_of cg "s"))

let test_callgraph_reachable () =
  let src =
    "program main\ncall used\nend\nsubroutine used\nend\nsubroutine \
     orphan\nend\n"
  in
  let cg = Callgraph.build (resolve src) in
  let r = Callgraph.reachable_from_main cg in
  check Alcotest.bool "used reachable" true (List.mem "used" r);
  check Alcotest.bool "orphan not reachable" false (List.mem "orphan" r)

(* ------------------------------------------------------------------ *)
(* MOD/REF *)

let test_mod_direct () =
  let p =
    resolve
      "program main\ninteger n\nn = 1\ncall s(n)\nend\nsubroutine s(x)\ninteger \
       x\nx = 2\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "s modifies formal 0" true (Modref.modifies_formal mr "s" 0)

let test_mod_transitive () =
  let p =
    resolve
      "program main\ninteger n\nn = 1\ncall outer(n)\nend\n\
       subroutine outer(a)\ninteger a\ncall inner(a)\nend\n\
       subroutine inner(b)\ninteger b\nb = 7\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "outer modifies formal 0 transitively" true
    (Modref.modifies_formal mr "outer" 0)

let test_mod_not_modified () =
  let p =
    resolve
      "program main\ninteger n\nn = 1\ncall s(n)\nend\nsubroutine s(x)\ninteger \
       x\nprint *, x\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "s does not modify formal 0" false
    (Modref.modifies_formal mr "s" 0)

let test_mod_globals () =
  let p =
    resolve
      "program main\ncommon /c/ g\ninteger g\ncall s\nend\nsubroutine \
       s\ncommon /c/ h\ninteger h\nh = 3\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "s modifies global" true (Modref.modifies_global mr "s" "c:0")

let test_mod_global_transitive () =
  let p =
    resolve
      "program main\ncommon /c/ g\ninteger g\ncall outer\nend\n\
       subroutine outer\ncall inner\nend\n\
       subroutine inner\ncommon /c/ h\ninteger h\nh = 3\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "outer modifies global transitively" true
    (Modref.modifies_global mr "outer" "c:0")

let test_mod_recursion_terminates () =
  let p =
    resolve
      "program main\ninteger n\nn = 5\ncall a(n)\nend\n\
       subroutine a(x)\ninteger x\nif (x .gt. 0) then\nx = x - 1\ncall \
       a(x)\nend if\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "recursive a modifies formal" true
    (Modref.modifies_formal mr "a" 0)

let test_mod_read_statement () =
  let p =
    resolve
      "program main\ninteger n\ncall s(n)\nprint *, n\nend\nsubroutine \
       s(x)\ninteger x\nread *, x\nend\n"
  in
  let mr = Modref.compute (Callgraph.build p) in
  check Alcotest.bool "read modifies formal" true (Modref.modifies_formal mr "s" 0)

(* ------------------------------------------------------------------ *)
(* Forward jump functions: the four kinds on the motivating example *)

let jf_src =
  "program main\n\
   integer n\n\
   common /cfg/ gsize\n\
   integer gsize\n\
   gsize = 64\n\
   n = 10\n\
   call work(n, 5)\n\
   end\n\
   subroutine work(n, k)\n\
   integer n, k, i\n\
   common /cfg/ gs\n\
   integer gs\n\
   do i = 1, n\n\
   call leaf(k, k + 1, gs)\n\
   end do\n\
   end\n\
   subroutine leaf(a, b, c)\n\
   integer a, b, c\n\
   print *, a + b + c\n\
   end\n"

let test_literal_jf () =
  let t = analyze ~config:(Config.make ~kind:Jump_function.Literal ()) jf_src in
  (* only the literal 5 at the main→work site propagates *)
  expect_no_const t "work" "n";
  expect_const t "work" "k" 5;
  expect_no_const t "work" "gs";
  (* leaf's a is pass-through of k — literal can't see it *)
  expect_no_const t "leaf" "a";
  expect_no_const t "leaf" "b";
  expect_no_const t "leaf" "c"

let test_intraconst_jf () =
  let t =
    analyze ~config:(Config.make ~kind:Jump_function.Intraconst ()) jf_src
  in
  (* locally derived constants and constant globals propagate one edge *)
  expect_const t "work" "n" 10;
  expect_const t "work" "k" 5;
  expect_const t "work" "gs" 64;
  (* but k is not a local constant inside work, so leaf gets nothing *)
  expect_no_const t "leaf" "a";
  expect_no_const t "leaf" "b";
  (* gs passes through work unmodified — intraconst misses that too *)
  expect_no_const t "leaf" "c"

let test_passthrough_jf () =
  let t =
    analyze ~config:(Config.make ~kind:Jump_function.Passthrough ()) jf_src
  in
  expect_const t "work" "n" 10;
  expect_const t "work" "k" 5;
  expect_const t "work" "gs" 64;
  (* a = k passes through; c = gs passes through *)
  expect_const t "leaf" "a" 5;
  expect_const t "leaf" "c" 64;
  (* b = k + 1 needs a polynomial *)
  expect_no_const t "leaf" "b"

let test_polynomial_jf () =
  let t =
    analyze ~config:(Config.make ~kind:Jump_function.Polynomial ()) jf_src
  in
  expect_const t "leaf" "a" 5;
  expect_const t "leaf" "b" 6;
  expect_const t "leaf" "c" 64

(* The paper's subset chain on this example. *)
let test_kind_hierarchy_on_example () =
  let count kind =
    Substitute.count (Config.make ~kind ()) (resolve jf_src)
  in
  let l = count Jump_function.Literal in
  let i = count Jump_function.Intraconst in
  let p = count Jump_function.Passthrough in
  let y = count Jump_function.Polynomial in
  check Alcotest.bool "literal <= intraconst" true (l <= i);
  check Alcotest.bool "intraconst <= passthrough" true (i <= p);
  check Alcotest.bool "passthrough <= polynomial" true (p <= y);
  check Alcotest.bool "polynomial strictly better here" true (y > p)

(* ------------------------------------------------------------------ *)
(* Conflicting call sites meet to ⊥ *)

let test_conflicting_sites () =
  let t =
    analyze
      "program main\ncall s(1)\ncall s(2)\nend\nsubroutine s(x)\ninteger \
       x\nprint *, x\nend\n"
  in
  expect_no_const t "s" "x"

let test_agreeing_sites () =
  let t =
    analyze
      "program main\ncall s(7)\ncall s(7)\nend\nsubroutine s(x)\ninteger \
       x\nprint *, x\nend\n"
  in
  expect_const t "s" "x" 7

(* Propagation along paths longer than one edge. *)
let test_deep_chain () =
  let t = analyze chain_src in
  expect_const t "a" "x" 1;
  expect_const t "b" "y" 1;
  expect_const t "c" "z" 1

(* A recursive procedure with a changing argument is not constant. *)
let test_recursion_varying () =
  let t =
    analyze
      "program main\ncall a(3)\nend\nsubroutine a(x)\ninteger x\nif (x .gt. \
       0) then\ncall a(x - 1)\nend if\nend\n"
  in
  expect_no_const t "a" "x"

(* A recursive procedure with a stable argument is constant. *)
let test_recursion_stable () =
  let t =
    analyze
      "program main\ninteger n\nn = 0\ncall a(4, n)\nend\nsubroutine a(k, \
       x)\ninteger k, x\nif (x .lt. k) then\nx = x + 1\ncall a(k, x)\nend \
       if\nend\n"
  in
  expect_const t "a" "k" 4;
  expect_no_const t "a" "x"

(* ------------------------------------------------------------------ *)
(* Kills by calls: MOD information at work *)

let mod_kill_src =
  "program main\n\
   integer n\n\
   n = 10\n\
   call quiet(n)\n\
   call sink(n)\n\
   end\n\
   subroutine quiet(a)\n\
   integer a\n\
   print *, a\n\
   end\n\
   subroutine sink(b)\n\
   integer b\n\
   print *, b\n\
   end\n"

let test_mod_preserves_across_harmless_call () =
  let t = analyze mod_kill_src in
  (* quiet does not modify its argument, so n is still 10 at the sink call *)
  expect_const t "sink" "b" 10

let test_without_mod_kills_across_call () =
  let t = analyze ~config:Config.polynomial_no_mod mod_kill_src in
  (* worst-case assumption: the call to quiet may have changed n *)
  expect_no_const t "sink" "b"

let test_actually_modified_is_killed () =
  let t =
    analyze
      "program main\ninteger n\nn = 10\ncall bump(n)\ncall sink(n)\nend\n\
       subroutine bump(a)\ninteger a\nread *, a\nend\n\
       subroutine sink(b)\ninteger b\nprint *, b\nend\n"
  in
  expect_no_const t "sink" "b"

(* ------------------------------------------------------------------ *)
(* Return jump functions *)

let ocean_like_src =
  "program main\n\
   common /cfg/ g, h\n\
   integer g, h\n\
   call init\n\
   call use\n\
   end\n\
   subroutine init\n\
   common /cfg/ a, b\n\
   integer a, b\n\
   a = 42\n\
   b = 7\n\
   end\n\
   subroutine use\n\
   common /cfg/ x, y\n\
   integer x, y\n\
   print *, x + y\n\
   end\n"

let test_return_jf_exposes_init_globals () =
  let t = analyze ocean_like_src in
  expect_const t "use" "x" 42;
  expect_const t "use" "y" 7

let test_no_return_jf_misses_init_globals () =
  let t =
    analyze
      ~config:(Config.make ~kind:Jump_function.Passthrough ~return_jfs:false ())
      ocean_like_src
  in
  expect_no_const t "use" "x";
  expect_no_const t "use" "y"

let test_return_jf_function_result () =
  let t =
    analyze
      "program main\ninteger n\nn = answer(0)\ncall sink(n)\nend\n\
       function answer(d)\ninteger answer, d\nanswer = 42\nend\n\
       subroutine sink(b)\ninteger b\nprint *, b\nend\n"
  in
  expect_const t "sink" "b" 42

let test_return_jf_out_parameter () =
  let t =
    analyze
      "program main\ninteger n\ncall setup(n)\ncall sink(n)\nend\n\
       subroutine setup(out)\ninteger out\nout = 13\nend\n\
       subroutine sink(b)\ninteger b\nprint *, b\nend\n"
  in
  expect_const t "sink" "b" 13

(* Return jump functions that depend on the caller's parameters never
   evaluate as constant (paper §3.2) — but constant actuals do. *)
let test_return_jf_polynomial_of_constant_actual () =
  let t =
    analyze
      "program main\ninteger n\ncall double(8, n)\ncall sink(n)\nend\n\
       subroutine double(inp, out)\ninteger inp, out\nout = 2 * inp\nend\n\
       subroutine sink(b)\ninteger b\nprint *, b\nend\n"
  in
  expect_const t "sink" "b" 16

let test_return_jf_nonconstant_actual_is_bottom () =
  let t =
    analyze
      "program main\ninteger n, m\nread *, m\ncall double(m, n)\ncall \
       sink(n)\nend\n\
       subroutine double(inp, out)\ninteger inp, out\nout = 2 * inp\nend\n\
       subroutine sink(b)\ninteger b\nprint *, b\nend\n"
  in
  expect_no_const t "sink" "b"

(* ------------------------------------------------------------------ *)
(* Globals through unrelated procedures *)

let test_global_flows_through_nondeclaring_proc () =
  let t =
    analyze
      "program main\ncommon /c/ g\ninteger g\ng = 5\ncall middle\nend\n\
       subroutine middle\ncall bottom\nend\n\
       subroutine bottom\ncommon /c/ h\ninteger h\nprint *, h\nend\n"
  in
  (* middle does not declare /c/, but g flows through it untouched *)
  expect_const t "bottom" "h" 5

let test_array_elements_are_bottom () =
  let t =
    analyze
      "program main\ninteger a(5)\na(1) = 3\ncall s(a(1))\nend\nsubroutine \
       s(x)\ninteger x\nprint *, x\nend\n"
  in
  (* the analyzer does not track arrays: a(1) is ⊥ even though it is 3 *)
  expect_no_const t "s" "x"

let test_reals_are_not_tracked () =
  let t =
    analyze
      "program main\nreal x\nx = 1.5\ncall s(x)\nend\nsubroutine s(y)\nreal \
       y\nprint *, y\nend\n"
  in
  expect_no_const t "s" "y"

(* ------------------------------------------------------------------ *)
(* Substitution metric *)

let test_substitute_counts_uses () =
  let prog =
    resolve
      "program main\ncall s(4)\nend\nsubroutine s(n)\ninteger n, a(10)\na(n) \
       = n + n\nprint *, n\nend\n"
  in
  let t = Driver.analyze Config.default prog in
  let prog', stats = Substitute.apply t in
  (* four uses of n in s: subscript, two in n + n, one in print *)
  check Alcotest.int "substituted uses" 4 stats.total;
  (* and the result still resolves and prints *)
  let printed = Pretty.program_to_string prog' in
  match Sema.parse_and_resolve printed with
  | _ -> ()
  | exception Loc.Error (l, m) ->
    fail (Fmt.str "substituted program invalid at %a: %s\n%s" Loc.pp l m printed)

let test_substitute_preserves_modified_actuals () =
  let prog =
    resolve
      "program main\ninteger n\nn = 1\ncall bump(n)\nprint *, n\nend\n\
       subroutine bump(x)\ninteger x\nx = x + 1\nend\n"
  in
  let t = Driver.analyze Config.default prog in
  let prog', _ = Substitute.apply t in
  (* n is constant 1 at the call, but bump modifies it: the actual must
     remain a variable *)
  let main = Prog.find_proc_exn prog' "main" in
  let ok = ref false in
  Prog.iter_stmts
    (fun s ->
      match s.sdesc with
      | Prog.Scall ("bump", [ { edesc = Prog.Evar _; _ } ]) -> ok := true
      | _ -> ())
    main.pbody;
  check Alcotest.bool "by-ref actual kept" true !ok

let test_substitute_behaviour_preserved () =
  let src =
    "program main\n\
     integer n, total\n\
     common /cfg/ scale\n\
     integer scale\n\
     scale = 3\n\
     n = 4\n\
     total = 0\n\
     call accum(n, total)\n\
     print *, total\n\
     end\n\
     subroutine accum(k, acc)\n\
     integer k, acc, i\n\
     common /cfg/ sc\n\
     integer sc\n\
     do i = 1, k\n\
     acc = acc + sc * i\n\
     end do\n\
     end\n"
  in
  let prog = resolve src in
  let t = Driver.analyze Config.default prog in
  let prog', stats = Substitute.apply t in
  check Alcotest.bool "something substituted" true (stats.total > 0);
  let r1 = Ipcp_interp.Interp.run ~trace_entries:false prog in
  let r2 = Ipcp_interp.Interp.run ~trace_entries:false prog' in
  check (Alcotest.list Alcotest.string) "same output" r1.outputs r2.outputs

let test_intraprocedural_baseline_lower () =
  let inter = Substitute.count Config.polynomial_with_mod (resolve jf_src) in
  let intra = Substitute.count Config.intraprocedural_only (resolve jf_src) in
  check Alcotest.bool "intra <= inter" true (intra <= inter);
  check Alcotest.bool "inter strictly better here" true (inter > intra)

(* ------------------------------------------------------------------ *)
(* Complete propagation *)

let test_complete_propagation_dce () =
  let src =
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
  in
  (* plain propagation: v is a phi of 10 and 20 → ⊥ at the sink call *)
  let plain = Driver.analyze Config.polynomial_with_mod (resolve src) in
  (match const_of plain "sink" "b" with
  | None -> ()
  | Some c -> fail (Fmt.str "plain analysis should not find sink.b, got %d" c));
  (* complete propagation folds the dead else-branch and finds v = 10 *)
  let outcome = Complete.run (resolve src) in
  check Alcotest.bool "at least one dce round" true (outcome.dce_rounds >= 1);
  expect_const outcome.final "sink" "b" 10

let test_complete_propagation_single_round () =
  (* on a program with no dead code, complete propagation does nothing *)
  let outcome = Complete.run (resolve jf_src) in
  check Alcotest.int "no dce rounds" 0 outcome.dce_rounds

let suite =
  [
    ("callgraph edges", `Quick, test_callgraph_edges);
    ("callgraph bottom-up order", `Quick, test_callgraph_bottom_up);
    ("callgraph recursion scc", `Quick, test_callgraph_recursion_scc);
    ("callgraph multiedge", `Quick, test_callgraph_multiedge);
    ("callgraph reachability", `Quick, test_callgraph_reachable);
    ("mod direct", `Quick, test_mod_direct);
    ("mod transitive", `Quick, test_mod_transitive);
    ("mod not modified", `Quick, test_mod_not_modified);
    ("mod globals", `Quick, test_mod_globals);
    ("mod global transitive", `Quick, test_mod_global_transitive);
    ("mod recursion terminates", `Quick, test_mod_recursion_terminates);
    ("mod read statement", `Quick, test_mod_read_statement);
    ("literal jump function", `Quick, test_literal_jf);
    ("intraconst jump function", `Quick, test_intraconst_jf);
    ("passthrough jump function", `Quick, test_passthrough_jf);
    ("polynomial jump function", `Quick, test_polynomial_jf);
    ("kind hierarchy on example", `Quick, test_kind_hierarchy_on_example);
    ("conflicting sites meet to bottom", `Quick, test_conflicting_sites);
    ("agreeing sites stay constant", `Quick, test_agreeing_sites);
    ("deep chain propagation", `Quick, test_deep_chain);
    ("recursion varying arg", `Quick, test_recursion_varying);
    ("recursion stable arg", `Quick, test_recursion_stable);
    ("mod preserves across harmless call", `Quick,
      test_mod_preserves_across_harmless_call);
    ("without mod kills across call", `Quick, test_without_mod_kills_across_call);
    ("actually modified is killed", `Quick, test_actually_modified_is_killed);
    ("return jf exposes init globals", `Quick, test_return_jf_exposes_init_globals);
    ("no return jf misses init globals", `Quick,
      test_no_return_jf_misses_init_globals);
    ("return jf function result", `Quick, test_return_jf_function_result);
    ("return jf out parameter", `Quick, test_return_jf_out_parameter);
    ("return jf over constant actuals", `Quick,
      test_return_jf_polynomial_of_constant_actual);
    ("return jf over nonconstant actuals", `Quick,
      test_return_jf_nonconstant_actual_is_bottom);
    ("global flows through non-declaring proc", `Quick,
      test_global_flows_through_nondeclaring_proc);
    ("array elements are bottom", `Quick, test_array_elements_are_bottom);
    ("reals are not tracked", `Quick, test_reals_are_not_tracked);
    ("substitute counts uses", `Quick, test_substitute_counts_uses);
    ("substitute preserves modified actuals", `Quick,
      test_substitute_preserves_modified_actuals);
    ("substitute preserves behaviour", `Quick, test_substitute_behaviour_preserved);
    ("intraprocedural baseline lower", `Quick, test_intraprocedural_baseline_lower);
    ("complete propagation with dce", `Quick, test_complete_propagation_dce);
    ("complete propagation single round", `Quick,
      test_complete_propagation_single_round);
  ]
