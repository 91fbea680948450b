(* Property-based tests (qcheck, registered as alcotest cases).

   The heavyweight properties run whole-pipeline checks on randomly
   generated MiniFort programs:
   - the paper's jump-function hierarchy (literal ⊆ intraconst ⊆
     pass-through ⊆ polynomial), both on CONSTANTS sets and on substitution
     counts;
   - soundness of every reported constant against values observed by the
     reference interpreter at procedure entries;
   - behaviour preservation of constant substitution and of complete
     propagation (same printed output);
   - monotonicity in MOD information and in return jump functions. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_suite
module Complete = Ipcp_incr.Complete

let spec_of_seed seed =
  (* vary the structural knobs with the seed so different shapes appear *)
  let base = Workload.default_spec in
  {
    base with
    Workload.seed;
    num_procs = 3 + (seed mod 5);
    num_globals = seed mod 4;
    stmts_per_proc = 4 + (seed mod 7);
    p_out_param = float_of_int (seed mod 3) /. 4.0;
  }

let gen_seed = QCheck2.Gen.int_range 1 10_000

let program_of_seed seed = Workload.generate_resolved (spec_of_seed seed)

let count kind prog = Substitute.count (Config.make ~kind ()) prog

(* CONSTANTS as a comparable set of (proc, param, value). *)
let constant_facts (t : Driver.t) =
  Driver.constants t
  |> List.concat_map (fun (proc, cs) ->
         List.map (fun (param, c) -> (proc, param, c)) cs)
  |> List.sort compare

(* NOTE: substitution *counts* are deliberately not property-tested for
   monotonicity.  They are not monotone in analysis precision: an extra
   constant can prove a branch dead, and uses inside dead code are not
   substituted, so a more precise configuration can legally substitute
   fewer uses.  (The paper's Table 2 counts are monotone on its suite, and
   ours are on ours — test_suite asserts that — but it is an empirical
   fact, not a theorem.)  The theorems are the CONSTANTS-set inclusions
   below. *)
let _ = count

let prop_hierarchy_sets =
  QCheck2.Test.make ~name:"jump function hierarchy: CONSTANTS sets nest"
    ~count:60 gen_seed (fun seed ->
      let prog = program_of_seed seed in
      let facts kind =
        constant_facts (Driver.analyze (Config.make ~kind ()) prog)
      in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let l = facts Jump_function.Literal in
      let i = facts Jump_function.Intraconst in
      let p = facts Jump_function.Passthrough in
      let y = facts Jump_function.Polynomial in
      subset l i && subset i p && subset p y)

(* Every reported constant is observed at every traced procedure entry. *)
let check_soundness prog (t : Driver.t) =
  let r = Ipcp_interp.Interp.run ~fuel:500_000 prog in
  match r.outcome with
  | Ipcp_interp.Interp.Failed m -> QCheck2.Test.fail_reportf "interpreter: %s" m
  | Out_of_fuel -> true (* nothing to check against *)
  | Finished ->
    List.for_all
      (fun (proc_name, cs) ->
        let entries =
          List.filter
            (fun (e : Ipcp_interp.Interp.entry_snapshot) ->
              e.es_proc = proc_name)
            r.entries
        in
        List.for_all
          (fun (param, c) ->
            List.for_all
              (fun (e : Ipcp_interp.Interp.entry_snapshot) ->
                let observed =
                  match param with
                  | Prog.Pformal i -> List.assoc_opt i e.es_formals
                  | Prog.Pglob key -> List.assoc_opt key e.es_globals
                in
                match observed with
                | Some (Some v) ->
                  if Ipcp_interp.Interp.equal_value v (Ipcp_interp.Interp.Vint c)
                  then true
                  else
                    QCheck2.Test.fail_reportf
                      "unsound: %s claims %s = %d but observed %a" proc_name
                      (Prog.param_name t.prog
                         (Prog.find_proc_exn t.prog proc_name)
                         param)
                      c Ipcp_interp.Interp.pp_value v
                | Some None | None ->
                  (* parameter uninitialized or untracked at this entry *)
                  true)
              entries)
          cs)
      (Driver.constants t)

let prop_soundness =
  QCheck2.Test.make ~name:"CONSTANTS sound against interpreter" ~count:80
    gen_seed (fun seed ->
      let prog = program_of_seed seed in
      let t = Driver.analyze Config.polynomial_with_mod prog in
      check_soundness prog t)

let prop_soundness_no_mod =
  QCheck2.Test.make ~name:"CONSTANTS sound without MOD" ~count:40 gen_seed
    (fun seed ->
      let prog = program_of_seed seed in
      let t = Driver.analyze Config.polynomial_no_mod prog in
      check_soundness prog t)

let prop_substitution_preserves_behaviour =
  QCheck2.Test.make ~name:"substitution preserves printed output" ~count:60
    gen_seed (fun seed ->
      let prog = program_of_seed seed in
      let t = Driver.analyze Config.polynomial_with_mod prog in
      let prog', _ = Substitute.apply t in
      let r1 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false prog in
      let r2 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false prog' in
      match (r1.outcome, r2.outcome) with
      | Ipcp_interp.Interp.Finished, Ipcp_interp.Interp.Finished ->
        if r1.outputs = r2.outputs then true
        else
          QCheck2.Test.fail_reportf "output changed:@.%a@.vs@.%a"
            (Fmt.list Fmt.string) r1.outputs (Fmt.list Fmt.string) r2.outputs
      | Out_of_fuel, _ | _, Out_of_fuel -> true
      | o1, o2 ->
        let s = function
          | Ipcp_interp.Interp.Finished -> "finished"
          | Out_of_fuel -> "fuel"
          | Failed m -> "failed: " ^ m
        in
        QCheck2.Test.fail_reportf "outcomes differ: %s vs %s" (s o1) (s o2))

let prop_complete_preserves_behaviour =
  QCheck2.Test.make ~name:"complete propagation (DCE) preserves output"
    ~count:40 gen_seed (fun seed ->
      let prog = program_of_seed seed in
      let outcome = Complete.run prog in
      let prog' = outcome.final.Driver.prog in
      let r1 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false prog in
      let r2 = Ipcp_interp.Interp.run ~fuel:500_000 ~trace_entries:false prog' in
      match (r1.outcome, r2.outcome) with
      | Ipcp_interp.Interp.Finished, Ipcp_interp.Interp.Finished ->
        r1.outputs = r2.outputs
      | Out_of_fuel, _ | _, Out_of_fuel -> true
      | _, _ -> false)

let facts config prog = constant_facts (Driver.analyze config prog)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_mod_monotone =
  QCheck2.Test.make ~name:"MOD information is monotone (CONSTANTS sets)"
    ~count:60 gen_seed (fun seed ->
      let prog = program_of_seed seed in
      subset (facts Config.polynomial_no_mod prog)
        (facts Config.polynomial_with_mod prog))

let prop_return_jf_monotone =
  QCheck2.Test.make
    ~name:"return jump functions are monotone (CONSTANTS sets)" ~count:60
    gen_seed (fun seed ->
      let prog = program_of_seed seed in
      subset
        (facts
           (Config.make ~kind:Jump_function.Passthrough ~return_jfs:false ())
           prog)
        (facts Config.default prog))

let prop_intra_below_inter =
  QCheck2.Test.make ~name:"intraprocedural baseline claims no entry facts"
    ~count:30 gen_seed (fun seed ->
      let prog = program_of_seed seed in
      facts Config.intraprocedural_only prog = [])

let prop_roundtrip_generated =
  QCheck2.Test.make ~name:"parse/print round-trip on generated programs"
    ~count:80 gen_seed (fun seed ->
      let src = Workload.generate (spec_of_seed seed) in
      let ast1 = Parser.parse_program src in
      let ast2 = Parser.parse_program (Pretty.ast_program_to_string ast1) in
      Ast.equal_program ast1 ast2)

let prop_interp_deterministic =
  QCheck2.Test.make ~name:"interpreter is deterministic" ~count:30 gen_seed
    (fun seed ->
      let prog = program_of_seed seed in
      let r1 = Ipcp_interp.Interp.run ~fuel:200_000 prog in
      let r2 = Ipcp_interp.Interp.run ~fuel:200_000 prog in
      r1.outputs = r2.outputs && List.length r1.entries = List.length r2.entries)

(* Substituted programs still resolve (printed source is valid MiniFort). *)
let prop_substituted_reparses =
  QCheck2.Test.make ~name:"substituted program reparses and re-resolves"
    ~count:40 gen_seed (fun seed ->
      let prog = program_of_seed seed in
      let t = Driver.analyze Config.default prog in
      let prog', _ = Substitute.apply t in
      let printed = Pretty.program_to_string prog' in
      match Sema.parse_and_resolve printed with
      | _ -> true
      | exception Loc.Error (l, m) ->
        QCheck2.Test.fail_reportf "invalid at %a: %s@.%s" Loc.pp l m printed)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hierarchy_sets;
      prop_soundness;
      prop_soundness_no_mod;
      prop_substitution_preserves_behaviour;
      prop_complete_preserves_behaviour;
      prop_mod_monotone;
      prop_return_jf_monotone;
      prop_intra_below_inter;
      prop_roundtrip_generated;
      prop_interp_deterministic;
      prop_substituted_reparses;
    ]
