(* Tests for the benchmark suite: every program parses, resolves, runs to
   completion, its analysis results are sound against the interpreter, its
   substituted form behaves identically — and its Table 2/3 rows reproduce
   the qualitative shape of the paper's results. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_suite

let check = Alcotest.check
let fail = Alcotest.fail

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> fail ("no suite entry " ^ name)

(* ------------------------------------------------------------------ *)
(* Generic per-program checks *)

let run_entry e =
  let prog = Registry.program e in
  Ipcp_interp.Interp.run ~fuel:Ipcp_interp.Interp.default_fuel prog

let test_runs name () =
  match (run_entry (entry name)).outcome with
  | Ipcp_interp.Interp.Finished -> ()
  | Out_of_fuel -> fail (name ^ " ran out of fuel")
  | Failed m -> fail (name ^ " failed: " ^ m)

let test_sound name () =
  let e = entry name in
  let prog = Registry.program e in
  let t = Driver.analyze Config.polynomial_with_mod prog in
  let r = run_entry e in
  List.iter
    (fun (proc_name, cs) ->
      let entries =
        List.filter
          (fun (en : Ipcp_interp.Interp.entry_snapshot) -> en.es_proc = proc_name)
          r.entries
      in
      List.iter
        (fun (param, c) ->
          List.iter
            (fun (en : Ipcp_interp.Interp.entry_snapshot) ->
              let observed =
                match param with
                | Prog.Pformal i -> List.assoc_opt i en.es_formals
                | Prog.Pglob key -> List.assoc_opt key en.es_globals
              in
              match observed with
              | Some (Some v) ->
                if not (Ipcp_interp.Interp.equal_value v (Ipcp_interp.Interp.Vint c))
                then
                  fail
                    (Fmt.str "%s: %s claims %s = %d, observed %a" name proc_name
                       (Prog.param_name prog
                          (Prog.find_proc_exn prog proc_name)
                          param)
                       c Ipcp_interp.Interp.pp_value v)
              | Some None | None -> ())
            entries)
        cs)
    (Driver.constants t)

let test_substitution_preserves name () =
  let e = entry name in
  let prog = Registry.program e in
  List.iter
    (fun config ->
      let t = Driver.analyze config prog in
      let prog', _ = Substitute.apply t in
      let fuel = Ipcp_interp.Interp.default_fuel in
      let r1 = Ipcp_interp.Interp.run ~fuel ~trace_entries:false prog in
      let r2 = Ipcp_interp.Interp.run ~fuel ~trace_entries:false prog' in
      if r1.outputs <> r2.outputs then
        fail (Fmt.str "%s: output changed under %a" name Config.pp config))
    [
      Config.polynomial_with_mod;
      Config.polynomial_no_mod;
      Config.make ~kind:Jump_function.Literal ();
      Config.make ~kind:Jump_function.Intraconst ();
      Config.make ~kind:Jump_function.Passthrough ~return_jfs:false ();
      Config.intraprocedural_only;
    ]

(* ------------------------------------------------------------------ *)
(* Shape assertions: the paper's orderings per program *)

let rows name =
  let r2, r3, _ = Tables.rows (entry name) in
  (r2, r3)

(* Shared invariants that the paper reports for every program. *)
let test_global_invariants () =
  List.iter
    (fun e ->
      let r2, r3, _ = Tables.rows e in
      (* the paper's headline: pass-through and polynomial found the same
         constants on the whole suite *)
      check Alcotest.int (e.name ^ ": pass = poly") r2.ret_poly r2.ret_pass;
      check Alcotest.bool (e.name ^ ": intra <= pass") true
        (r2.ret_intra <= r2.ret_pass);
      check Alcotest.bool (e.name ^ ": literal <= intra") true
        (r2.ret_lit <= r2.ret_intra);
      check Alcotest.bool (e.name ^ ": no-ret <= ret") true
        (r2.noret_poly <= r2.ret_poly);
      check Alcotest.bool (e.name ^ ": no-mod <= mod") true
        (r3.poly_no_mod <= r3.poly_mod);
      check Alcotest.bool (e.name ^ ": complete >= plain") true
        (r3.complete >= r3.poly_mod);
      check Alcotest.bool (e.name ^ ": intra-only <= inter") true
        (r3.intra_only <= r3.poly_mod))
    Registry.entries

let test_shape_adm () =
  let r2, r3 = rows "adm" in
  (* all four jump functions tie *)
  check Alcotest.int "lit = poly" r2.ret_poly r2.ret_lit;
  (* MOD is decisive *)
  check Alcotest.bool "no-mod well below" true
    (r3.poly_no_mod * 2 < r3.poly_mod);
  (* the intraprocedural baseline comes close *)
  check Alcotest.bool "intra-only close" true
    (r3.intra_only * 2 > r3.poly_mod)

let test_shape_doduc () =
  let r2, r3 = rows "doduc" in
  (* literal catches nearly everything *)
  check Alcotest.bool "literal close to poly" true
    (r2.ret_poly - r2.ret_lit <= 8);
  (* return jump functions contribute a little *)
  check Alcotest.bool "ret jfs small help" true
    (r2.ret_poly - r2.noret_poly <= 4 && r2.ret_poly > r2.noret_poly);
  (* losing MOD barely matters *)
  check Alcotest.bool "no-mod close" true (r3.poly_mod - r3.poly_no_mod <= 6);
  (* the intraprocedural baseline starves *)
  check Alcotest.bool "intra-only tiny" true (r3.intra_only <= 3)

let test_shape_fpppp () =
  let r2, _ = rows "fpppp" in
  check Alcotest.bool "lit < intra" true (r2.ret_lit < r2.ret_intra);
  check Alcotest.bool "intra < pass" true (r2.ret_intra < r2.ret_pass);
  check Alcotest.bool "ret jfs help" true (r2.noret_poly < r2.ret_poly)

let test_shape_linpackd () =
  let r2, r3 = rows "linpackd" in
  check Alcotest.bool "lit well below" true (r2.ret_lit < r2.ret_intra);
  check Alcotest.int "intra = pass" r2.ret_pass r2.ret_intra;
  check Alcotest.bool "no-mod collapses" true (r3.poly_no_mod * 3 < r3.poly_mod)

let test_shape_matrix300 () =
  let r2, r3 = rows "matrix300" in
  check Alcotest.bool "lit < intra" true (r2.ret_lit < r2.ret_intra);
  check Alcotest.bool "intra < pass (chains)" true (r2.ret_intra < r2.ret_pass);
  check Alcotest.bool "no-mod collapses" true (r3.poly_no_mod * 3 < r3.poly_mod)

let test_shape_mdg () =
  let r2, _ = rows "mdg" in
  check Alcotest.bool "lit < intra" true (r2.ret_lit < r2.ret_intra);
  check Alcotest.bool "intra < pass" true (r2.ret_intra < r2.ret_pass);
  check Alcotest.bool "ret jfs help a little" true
    (r2.ret_poly > r2.noret_poly && r2.ret_poly - r2.noret_poly <= 4)

let test_shape_ocean () =
  let r2, r3 = rows "ocean" in
  (* the headline: return jump functions at least double the count
     (the paper saw more than 3x) *)
  check Alcotest.bool "ret jfs dominate" true (r2.noret_poly * 2 < r2.ret_poly);
  (* literal misses the implicit globals *)
  check Alcotest.bool "literal well below" true (r2.ret_lit * 2 < r2.ret_poly);
  (* intraconst does as well as pass-through (flat structure) *)
  check Alcotest.int "intra = pass" r2.ret_pass r2.ret_intra;
  (* complete propagation exposes additional constants *)
  check Alcotest.bool "complete gains" true (r3.complete > r3.poly_mod)

let test_shape_qcd () =
  let r2, r3 = rows "qcd" in
  check Alcotest.bool "all nearly tie" true (r2.ret_poly - r2.ret_lit <= 2);
  check Alcotest.bool "intra-only nearly ties" true
    (r3.poly_mod - r3.intra_only <= 3)

let test_shape_simple () =
  let r2, r3 = rows "simple" in
  check Alcotest.bool "lit < intra" true (r2.ret_lit < r2.ret_intra);
  check Alcotest.bool "intra < pass" true (r2.ret_intra < r2.ret_pass);
  (* catastrophic without MOD *)
  check Alcotest.bool "no-mod catastrophic" true
    (r3.poly_no_mod * 4 < r3.poly_mod)

let test_shape_snasa7 () =
  let r2, r3 = rows "snasa7" in
  check Alcotest.bool "lit well below" true (r2.ret_lit < r2.ret_intra);
  (* no literal actuals: the literal JF run equals the intra-only baseline *)
  check Alcotest.int "lit = intra-only" r3.intra_only r2.ret_lit

let test_shape_spec77 () =
  let r2, r3 = rows "spec77" in
  check Alcotest.bool "lit < rest" true (r2.ret_lit < r2.ret_poly);
  check Alcotest.bool "complete gains" true (r3.complete > r3.poly_mod)

let test_shape_trfd () =
  let r2, r3 = rows "trfd" in
  check Alcotest.bool "small spread" true (r2.ret_poly - r2.ret_lit <= 4);
  check Alcotest.bool "intra-only close" true (r3.poly_mod - r3.intra_only <= 8)

(* Table 1 sanity *)
let test_characteristics () =
  List.iter
    (fun (c : Metrics.characteristics) ->
      check Alcotest.bool (c.name ^ " has lines") true (c.lines > 20);
      check Alcotest.bool (c.name ^ " has procs") true (c.procedures >= 4);
      check Alcotest.bool (c.name ^ " has calls") true (c.call_sites >= 3);
      check Alcotest.bool (c.name ^ " mean sane") true
        (c.mean_lines > 3.0 && c.mean_lines < 60.0))
    (Metrics.table1 ())

(* §3.1.5: "in practice, cost(J) approaches the cost of pass-through
   jump functions and |support(J)| approaches 1".  On the suite the
   pass-through and polynomial kinds build jump functions of equal size
   and support — no polynomial ever has more than a pass-through's one
   leaf — and the literal and intraconst kinds, whose jump functions are
   constants or ⊥, have no support at all. *)
let test_jump_function_statistics () =
  let prepared =
    List.map (fun e -> Driver.prepare (Registry.program e)) Registry.entries
  in
  let row kind =
    List.fold_left
      (fun (sites, size, support) a ->
        let t = Driver.solve (Config.make ~kind ()) a in
        List.fold_left
          (fun (sites, size, support) s ->
            ( sites + 1,
              size + Jump_function.site_cost s,
              support + Jump_function.site_support s ))
          (sites, size, support) t.Driver.site_jfs)
      (0, 0, 0) prepared
  in
  check
    Alcotest.(list (pair string (triple int int int)))
    "sites, total size and total support per kind"
    [
      ("literal", (194, 649, 0));
      ("intraconst", (194, 649, 0));
      ("passthrough", (194, 649, 110));
      ("polynomial", (194, 649, 110));
    ]
    (List.map
       (fun kind -> (Jump_function.kind_name kind, row kind))
       Jump_function.all_kinds)

(* The Metzger–Stroud effect: cloning a procedure per distinct constant
   context never lowers the substitution count, and raises it on six of
   the twelve programs. *)
let test_cloning_ablation () =
  check
    Alcotest.(list (pair string (triple int int int)))
    "constants substituted before and after cloning, and clones made"
    [
      ("adm", (111, 117, 12));
      ("doduc", (201, 201, 0));
      ("fpppp", (85, 85, 0));
      ("linpackd", (90, 98, 12));
      ("matrix300", (46, 56, 5));
      ("mdg", (38, 38, 0));
      ("ocean", (110, 126, 1));
      ("qcd", (94, 94, 0));
      ("simple", (101, 109, 12));
      ("snasa7", (131, 131, 0));
      ("spec77", (49, 65, 1));
      ("trfd", (24, 24, 0));
    ]
    (List.map
       (fun (e : Registry.entry) ->
         let prog = Registry.program e in
         let cloned, clones = Cloning.clone_to_fixpoint prog in
         ( e.name,
           ( Substitute.count Config.polynomial_with_mod prog,
             Substitute.count Config.polynomial_with_mod cloned,
             clones ) ))
       Registry.entries)

let test_registry_complete () =
  check
    (Alcotest.list Alcotest.string)
    "the paper's twelve programs"
    [
      "adm"; "doduc"; "fpppp"; "linpackd"; "matrix300"; "mdg"; "ocean"; "qcd";
      "simple"; "snasa7"; "spec77"; "trfd";
    ]
    Registry.names

let per_program name =
  [
    (name ^ " runs", `Quick, test_runs name);
    (name ^ " analysis sound", `Quick, test_sound name);
    (name ^ " substitution preserves output", `Quick,
      test_substitution_preserves name);
  ]

let suite =
  List.concat_map per_program Registry.names
  @ [
      ("registry complete", `Quick, test_registry_complete);
      ("table 1 characteristics", `Quick, test_characteristics);
      ("global invariants on all programs", `Quick, test_global_invariants);
      ("jump-function statistics per kind", `Quick,
       test_jump_function_statistics);
      ("cloning ablation", `Quick, test_cloning_ablation);
      ("shape: adm", `Quick, test_shape_adm);
      ("shape: doduc", `Quick, test_shape_doduc);
      ("shape: fpppp", `Quick, test_shape_fpppp);
      ("shape: linpackd", `Quick, test_shape_linpackd);
      ("shape: matrix300", `Quick, test_shape_matrix300);
      ("shape: mdg", `Quick, test_shape_mdg);
      ("shape: ocean", `Quick, test_shape_ocean);
      ("shape: qcd", `Quick, test_shape_qcd);
      ("shape: simple", `Quick, test_shape_simple);
      ("shape: snasa7", `Quick, test_shape_snasa7);
      ("shape: spec77", `Quick, test_shape_spec77);
      ("shape: trfd", `Quick, test_shape_trfd);
    ]
