(** The four-stage analyzer pipeline (paper §4.1), staged:

    {!prepare} builds everything that does not depend on the
    jump-function configuration — the call graph, MOD summaries, and the
    per-program facts every procedure's IR reads (expression-id ceiling,
    global list, main's load-time values, a name → procedure table), so
    that per-procedure work touches only its procedure.  {!solve} runs
    only the config-dependent stages on top of those shared artifacts:
    forward jump functions for the configured [kind] and the
    interprocedural propagation.

    The IR of a procedure — CFG, dominators, SSA — depends on the
    configuration only through MOD's call-kill sets, so artifacts hold
    one IR table per MOD setting, filled on first use: each procedure's
    IR is built once per MOD setting, whatever the number of variants
    and stages that read it.  Stages 1–2 also depend on whether return
    jump functions participate, so artifacts memoize one stage-1/2
    bundle per (use_mod × return_jfs) variant, built on demand and
    shared by every subsequent {!solve}.  Each stage of each variant
    evaluates the shared SSA through symbolic values of its own
    ({!Jump_function.with_oracle}), since those memoize oracle answers.

    {!analyze} remains as the one-shot compatibility wrapper:
    [analyze config prog = solve config (prepare prog)] — prefer the
    staged pair when more than one configuration runs on a program.

    Like the solver, the pipeline is generic over the analysis: the
    artifact prefix (everything through stage 2) is analysis-independent
    and lives at the toplevel; {!Make} supplies the config-dependent
    suffix (stages 3–4, SCCP seeding, CONSTANTS) for any
    {!Ipcp_analysis.Analysis_sig.S}, and the toplevel solve/analyze
    values are the constant-propagation instantiation. *)

open Ipcp_frontend
open Ipcp_analysis
module Telemetry = Ipcp_telemetry.Telemetry

(* Parametric for the same reason as [Solver.generic_result]: one
   nominal record shared by every [Make] instantiation, so artifact
   plumbing and summary-based reuse stay polymorphic. *)
type 'elt analysis_result = {
  config : Config.t;
  prog : Prog.t;
  cg : Callgraph.t;
  modref : Modref.t;
  ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t;
  irs : (string, Jump_function.proc_ir) Hashtbl.t;
      (** phase-2 IR (full oracle), reused by the substitution pass *)
  site_jfs : Jump_function.site_jf list;
  solution : 'elt Solver.generic_result;
}

type t = Const_lattice.t analysis_result

(* ------------------------------------------------------------------ *)
(* Artifacts: the config-independent prefix of the pipeline.           *)

(* Stages 1 and 2 see the configuration only through these two axes. *)
type stage_key = { sk_use_mod : bool; sk_return_jfs : bool }

type stage12 = {
  sg_modref : Modref.t;
  sg_ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t;
  sg_irs : (string, Jump_function.proc_ir) Hashtbl.t;
}

(* Per-procedure IR, one table per MOD setting. *)
type ir_tables = {
  it_mod : (string, Jump_function.proc_ssa) Hashtbl.t;  (** computed MOD *)
  it_worst : (string, Jump_function.proc_ssa) Hashtbl.t;  (** worst case *)
}

let ir_table (t : ir_tables) ~use_mod = if use_mod then t.it_mod else t.it_worst

type artifacts = {
  a_prog : Prog.t;
  a_cg : Callgraph.t;
  a_facts : Jump_function.facts;
  a_modref : Modref.t Lazy.t;  (** computed MOD summaries *)
  a_worst : Modref.t Lazy.t;  (** worst-case call kills *)
  a_global_keys : string list;
  a_irs : ir_tables;
      (** each procedure's IR per MOD setting, built on first use and
          shared by both return-jump-function variants *)
  a_stages : (stage_key, stage12) Hashtbl.t;
      (** memoized stage-1/2 bundles, one per (use_mod × return_jfs) *)
  a_reuse : reuse option;
}

(* What a rewritten program may copy from the previous round: that
   round's tables and MOD summaries, never its artifacts — which would
   hold the round before it, and so on back to the first. *)
and reuse = {
  r_unchanged : string -> bool;  (** body identical to the previous round *)
  r_modref : Modref.t Lazy.t;
  r_irs : ir_tables;
  r_stages : (stage_key, stage12) Hashtbl.t;
}

let prepare_with ?reuse (prog : Prog.t) : artifacts =
  Telemetry.span "prepare" (fun () ->
      let cg = Callgraph.build prog in
      let facts = Jump_function.facts prog in
      let reuse =
        match reuse with
        | Some (prev, unchanged) when facts.f_globals = prev.a_facts.f_globals
          ->
          Some
            {
              r_unchanged = unchanged;
              r_modref = prev.a_modref;
              r_irs = prev.a_irs;
              r_stages = prev.a_stages;
            }
        | Some _ (* every IR embeds the global list: rebuild them all *)
        | None ->
          None
      in
      {
        a_prog = prog;
        a_cg = cg;
        a_facts = facts;
        a_modref = lazy (Modref.compute cg);
        a_worst = lazy (Modref.worst_case cg);
        a_global_keys = List.map Prog.global_key facts.f_globals;
        a_irs = { it_mod = Hashtbl.create 64; it_worst = Hashtbl.create 64 };
        a_stages = Hashtbl.create 4;
        a_reuse = reuse;
      })

let prepare prog = prepare_with prog

let artifacts_prog (a : artifacts) = a.a_prog
let artifacts_callgraph (a : artifacts) = a.a_cg
let find_proc (a : artifacts) name = Hashtbl.find_opt a.a_facts.f_procs name

(* A procedure's callers observe it only through its summary: the MOD
   footprint (which formals and globals it may modify — the call-kill
   sets) and its return jump function (what a call leaves behind).  Two
   versions with equal summaries are indistinguishable to every caller's
   IR and jump functions, which is what lets both the stage-1/2 reuse
   below and the incremental cone computation stop walking upward at a
   provably unchanged summary. *)
let ret_jf_equal (a : Jump_function.ret_jf) (b : Jump_function.ret_jf) : bool =
  Symbolic.equal a.rj_result b.rj_result
  && Jump_function.Int_map.equal Symbolic.equal a.rj_formals b.rj_formals
  && Jump_function.Str_map.equal Symbolic.equal a.rj_globals b.rj_globals

let mod_summary_equal (ma : Modref.t) (mb : Modref.t) (name : string) : bool =
  let sa = Modref.summary ma name and sb = Modref.summary mb name in
  Modref.Int_set.equal sa.mod_formals sb.mod_formals
  && Modref.Str_set.equal sa.mod_globals sb.mod_globals

let prepare_reusing ~prev ~unchanged prog =
  prepare_with ~reuse:(prev, unchanged) prog

(* ------------------------------------------------------------------ *)
(* Stages 1 and 2, per (use_mod × return_jfs) variant.                 *)

(* Every procedure [name] calls, itself aside, satisfies [stable]. *)
let callees_stable (a : artifacts) name stable =
  List.for_all
    (fun (e : Callgraph.edge) -> e.e_callee = name || stable e.e_callee)
    (Callgraph.callees_of a.a_cg name)

(* Under computed MOD, a callee's call kills are stable when its MOD
   footprint equals last round's; worst-case kills are the same on both
   sides. *)
let mod_stable (a : artifacts) (r : reuse) ~use_mod =
  if not use_mod then fun _ -> true
  else
    let pm = Lazy.force r.r_modref and cm = Lazy.force a.a_modref in
    fun name -> mod_summary_equal pm cm name

(* The IR of [name] under one MOD setting, built on first use.  A
   procedure whose body is unchanged since the previous round keeps last
   round's IR when every callee's call kills are unchanged too: SSA sees
   callees only through them.  (Symbolic values, which also see the
   return jump functions, are made fresh per stage; see below.) *)
let ir_for (a : artifacts) ~use_mod name : Jump_function.proc_ssa =
  let irs = ir_table a.a_irs ~use_mod in
  match Hashtbl.find_opt irs name with
  | Some ir -> ir
  | None ->
    let reused =
      match a.a_reuse with
      | Some r
        when r.r_unchanged name
             && callees_stable a name (mod_stable a r ~use_mod) ->
        Hashtbl.find_opt (ir_table r.r_irs ~use_mod) name
      | Some _ | None -> None
    in
    let ir =
      match reused with
      | Some ir ->
        Telemetry.incr "driver.stage12_reused";
        ir
      | None ->
        let modref = Lazy.force (if use_mod then a.a_modref else a.a_worst) in
        Jump_function.build_ir a.a_facts ~modref
          (Hashtbl.find a.a_facts.f_procs name)
    in
    Hashtbl.replace irs name ir;
    ir

(* Stage 1's return jump function of [name], copied from the previous
   round when its body is unchanged and every callee's summary — MOD
   footprint plus return jump function — is provably equal to last
   round's: the values it is built from see callees only through those.
   Return-jump-function stability is read off the new table as it fills
   bottom-up (a copied entry is physically last round's, so it compares
   equal for free); a callee in the same recursive cycle has no entry yet
   and counts as unstable, which conservatively rebuilds cycle members. *)
let reused_ret_jf (a : artifacts) (key : stage_key) ret_jfs name =
  match a.a_reuse with
  | None -> None
  | Some r -> (
    match Hashtbl.find_opt r.r_stages key with
    | None -> None
    | Some prev ->
      let mod_stable = mod_stable a r ~use_mod:key.sk_use_mod in
      let ret_stable callee =
        match
          ( Hashtbl.find_opt prev.sg_ret_jfs callee,
            Hashtbl.find_opt ret_jfs callee )
        with
        | Some old_v, Some new_v -> ret_jf_equal old_v new_v
        | _ -> false
      in
      if
        r.r_unchanged name
        && callees_stable a name (fun c -> mod_stable c && ret_stable c)
      then Hashtbl.find_opt prev.sg_ret_jfs name
      else None)

let build_stage12 (a : artifacts) (key : stage_key) : stage12 =
  let modref =
    if key.sk_use_mod then Lazy.force a.a_modref else Lazy.force a.a_worst
  in
  let ir_for = ir_for a ~use_mod:key.sk_use_mod in
  let ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t = Hashtbl.create 16 in
  (* ---- stage 1: return jump functions, bottom-up ---- *)
  Telemetry.span "stage1:return_jfs" (fun () ->
      if key.sk_return_jfs then begin
        let oracle = Jump_function.oracle_of_table ret_jfs in
        List.iter
          (fun name ->
            let rj =
              match reused_ret_jf a key ret_jfs name with
              | Some rj ->
                Telemetry.incr "driver.stage12_reused";
                rj
              | None ->
                Jump_function.build_ret_jf ~modref
                  (Jump_function.with_oracle ~oracle (ir_for name))
            in
            Hashtbl.replace ret_jfs name rj)
          (Callgraph.bottom_up a.a_cg)
      end);
  (* ---- stage 2: per-procedure IR, top-down, over the finished table ---- *)
  let oracle =
    if key.sk_return_jfs then Some (Jump_function.oracle_of_table ret_jfs)
    else None
  in
  let irs : (string, Jump_function.proc_ir) Hashtbl.t = Hashtbl.create 16 in
  Telemetry.span "stage2:forward_jfs" (fun () ->
      List.iter
        (fun name ->
          Hashtbl.replace irs name
            (Jump_function.with_oracle ?oracle (ir_for name)))
        (Callgraph.top_down a.a_cg));
  { sg_modref = modref; sg_ret_jfs = ret_jfs; sg_irs = irs }

let stage12_for (a : artifacts) (config : Config.t) : stage12 =
  let key =
    { sk_use_mod = config.use_mod; sk_return_jfs = config.return_jfs }
  in
  match Hashtbl.find_opt a.a_stages key with
  | Some s -> s
  | None ->
    let s = build_stage12 a key in
    Hashtbl.replace a.a_stages key s;
    s

let summary_stable (config : Config.t) ~(prev : artifacts) (a : artifacts)
    (name : string) : bool =
  (if config.use_mod then
     mod_summary_equal (Lazy.force prev.a_modref) (Lazy.force a.a_modref)
       name
   else true)
  && ((not config.return_jfs)
     ||
     match
       ( Hashtbl.find_opt (stage12_for prev config).sg_ret_jfs name,
         Hashtbl.find_opt (stage12_for a config).sg_ret_jfs name )
     with
     | Some ra, Some rb -> ret_jf_equal ra rb
     | _ -> false)

let site_jfs_for (a : artifacts) (config : Config.t) (name : string) :
    Jump_function.site_jf list =
  if not config.interprocedural then []
  else
    match Hashtbl.find_opt (stage12_for a config).sg_irs name with
    | None -> []
    | Some ir -> Jump_function.build_site_jfs ~kind:config.kind ir

(* ------------------------------------------------------------------ *)
(* Stages 3 and 4: the config-dependent suffix, per analysis.          *)

(** The return-jump-function oracle of this analysis (if enabled). *)
let oracle (t : 'elt analysis_result) : Ssa_value.oracle option =
  if t.config.return_jfs then Some (Jump_function.oracle_of_table t.ret_jfs)
  else None

(** Budget reasons of the propagation stage (empty on a precise run). *)
let degraded (t : 'elt analysis_result) : Ipcp_support.Budget.reason list =
  t.solution.Solver.degraded

module Make (A : Analysis_sig.S) = struct
  module S = Solver.Make (A)

  let propagate ?seed (config : Config.t) cg ~site_jfs ~global_keys :
      A.L.t Solver.generic_result =
    let prog = cg.Callgraph.prog in
    if config.interprocedural then begin
      let budget = Config.budget ~label:"solver" config in
      match seed with
      | Some (prev, dirty) ->
        S.run_seeded ~budget ~prev ~dirty cg ~site_jfs ~global_keys
      | None -> S.run ~budget cg ~site_jfs ~global_keys
    end
    else begin
      (* baseline: no propagation; every parameter of every procedure is
         ⊥ so that only locally derived constants survive *)
      let vals = Hashtbl.create 16 in
      List.iter
        (fun (p : Prog.proc) ->
          let m =
            List.fold_left
              (fun m (v : Prog.var) ->
                match v.vkind with
                | Prog.Kformal i ->
                  Prog.Param_map.add (Prog.Pformal i) A.L.bottom m
                | _ -> m)
              Prog.Param_map.empty p.pformals
          in
          let m =
            List.fold_left
              (fun m key -> Prog.Param_map.add (Prog.Pglob key) A.L.bottom m)
              m global_keys
          in
          Hashtbl.replace vals p.pname m)
        prog.procs;
      { Solver.vals; stats = Solver.fresh_stats (); degraded = [] }
    end

  (** Run the config-dependent stages over shared artifacts; [seed]
      switches stage 3 to the cone-restricted seeded solver. *)
  let solve_gen ?seed (config : Config.t) (a : artifacts) :
      A.L.t analysis_result =
  Telemetry.span "solve" (fun () ->
      let stage = stage12_for a config in
      (* forward jump functions restricted to the configured kind *)
      let site_jfs =
        Telemetry.span "stage2:forward_jfs" (fun () ->
            if not config.interprocedural then []
            else
              List.concat_map
                (fun name ->
                  Jump_function.build_site_jfs ~kind:config.kind
                    (Hashtbl.find stage.sg_irs name))
                (Callgraph.top_down a.a_cg))
      in
      (* ---- stage 3: interprocedural propagation ---- *)
      let solution =
        Telemetry.span "stage3:propagate" (fun () ->
            propagate ?seed config a.a_cg ~site_jfs
              ~global_keys:a.a_global_keys)
      in
      (* ---- stage 4: recording the results ---- *)
      Telemetry.span "stage4:record" (fun () ->
          let t =
            {
              config;
              prog = a.a_prog;
              cg = a.a_cg;
              modref = stage.sg_modref;
              ret_jfs = stage.sg_ret_jfs;
              irs = stage.sg_irs;
              site_jfs;
              solution;
            }
          in
          if Telemetry.enabled () then begin
            Telemetry.add ("jf.eval." ^ Jump_function.kind_name config.kind)
              solution.Solver.stats.jf_evaluations;
            Telemetry.add "driver.constants_found"
              (List.fold_left
                 (fun acc (p : Prog.proc) ->
                   acc + List.length (S.constants_of solution p.pname))
                 0 a.a_prog.procs)
          end;
          t))

  (** Run the config-dependent stages over shared artifacts. *)
  let solve (config : Config.t) (a : artifacts) : A.L.t analysis_result =
    solve_gen config a

  (** Like {!solve}, but stage 3 re-solves only the [dirty] cone, seeding
      every other procedure's VAL map from [prev_vals] — the incremental
      re-analysis path ({!Ipcp_incr.Incr.update}).  Byte-identical to
      {!solve} when [dirty] is closed under "may be affected by the
      change". *)
  let solve_seeded (config : Config.t) (a : artifacts)
      ~(prev_vals : (string, A.L.t Prog.Param_map.t) Hashtbl.t)
      ~(dirty : string -> bool) : A.L.t analysis_result =
    solve_gen ~seed:(prev_vals, dirty) config a

  (** Run the full pipeline on a resolved program (compatibility
      wrapper; prefer {!prepare} + {!solve}, which share artifacts
      across configurations). *)
  let analyze (config : Config.t) (prog : Prog.t) : A.L.t analysis_result =
    Telemetry.span "analyze" (fun () -> solve config (prepare prog))

  (** CONSTANTS(p) for every procedure, in program order. *)
  let constants (t : A.L.t analysis_result) :
      (string * (Prog.param * int) list) list =
    List.map
      (fun (p : Prog.proc) -> (p.pname, S.constants_of t.solution p.pname))
      t.prog.procs

  (** Total number of (procedure, parameter) constant facts. *)
  let constants_count (t : A.L.t analysis_result) =
    List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 (constants t)

  (** Entry-value environment for a procedure, as consumed by SCCP: the
      constant (if any) each formal/global holds on entry.  Facts with
      no constant reading (a copy, say) seed nothing — SCCP consumes
      integers, and [A.L.const_value] is the bridge. *)
  let entry_env (t : A.L.t analysis_result) (ir : Jump_function.proc_ir) :
      Prog.var -> int option =
   fun v ->
    let proc = ir.pi_proc in
    if v.vty <> Prog.Tint || Prog.is_array v then None
    else
      match v.vkind with
      | Prog.Kformal i ->
        A.L.const_value (S.lookup t.solution proc.pname (Prog.Pformal i))
      | Prog.Kglobal g ->
        A.L.const_value
          (S.lookup t.solution proc.pname (Prog.Pglob (Prog.global_key g)))
      | Prog.Klocal when proc.pkind = Prog.Pmain ->
        (* data-initialized locals of the main program hold their
           load-time values on entry *)
        ir.pi_entry_const v
      | Prog.Klocal | Prog.Kresult -> None

  (** Run SCCP for one procedure, seeded with the discovered entry facts.
      Each call creates a fresh budget from the configuration, so
      parallel per-procedure runs share no mutable budget state. *)
  let sccp_for (t : A.L.t analysis_result) (name : string) : Sccp.result =
    let ir = Hashtbl.find t.irs name in
    Sccp.run
      ~budget:(Config.budget ~label:("sccp:" ^ name) t.config)
      ?oracle:(oracle t) ~entry_env:(entry_env t ir) ir.Jump_function.pi_ssa

  let pp_constants ppf (t : A.L.t analysis_result) =
    List.iter
      (fun (proc : Prog.proc) ->
        match S.constants_of t.solution proc.pname with
        | [] -> ()
        | cs ->
          Fmt.pf ppf "%s: %a@." proc.pname
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (param, c) ->
                 Fmt.pf ppf "%s=%d" (Prog.param_name t.prog proc param) c))
            cs)
      t.prog.procs
end

include Make (Const_analysis)
