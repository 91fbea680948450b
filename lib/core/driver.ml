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

    The analysis ([Config.analysis]) reaches only stage 3, as main's
    entry seeds ({!Solver.global_seed}): everything through stage 2 is
    analysis-independent. *)

open Ipcp_frontend
open Ipcp_analysis
module Telemetry = Ipcp_telemetry.Telemetry

type t = {
  config : Config.t;
  prog : Prog.t;
  cg : Callgraph.t;
  modref : Modref.t;
  ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t;
  irs : (string, Jump_function.proc_ir) Hashtbl.t;
      (** phase-2 IR (full oracle), reused by the substitution pass *)
  site_jfs : Jump_function.site_jf list;
  solution : Solver.result;
  sccps : (string, Sccp.result) Hashtbl.t;
      (** [sccp_for]'s memo; only the domain that owns the result
          writes it *)
  substs : (string, Prog.proc * int) Hashtbl.t;
      (** substitution's memo: each procedure's rewritten body and count *)
  keep_sccps : bool;
      (** whether substitution records the SCCP results and rewrites it
          computes *)
}

(* ------------------------------------------------------------------ *)
(* Artifacts: the config-independent prefix of the pipeline.           *)

(* Stages 1 and 2 see the configuration only through these two axes. *)
type stage_key = { sk_use_mod : bool; sk_return_jfs : bool }

type stage12 = {
  sg_modref : Modref.t;
  sg_ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t;
  sg_irs : (string, Jump_function.proc_ir) Hashtbl.t;
  sg_sites :
    (Jump_function.kind, (string, Jump_function.site_jf list) Hashtbl.t)
    Hashtbl.t;
      (** each procedure's site jump functions per kind, filled on first
          use *)
  sg_ret_changed : (string, unit) Hashtbl.t;
      (** the procedures whose return jump function differs from the
          previous round's bundle's (empty without one: nothing is copied
          then) *)
  sg_ret_tainted : (string, unit) Hashtbl.t;
      (** the callers of those, each one's recursive calls aside *)
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
  r_main_data : Prog.var -> int option;  (** the previous load-time values *)
  r_mod_stable : (string -> bool) Lazy.t;
      (** no callee's MOD footprint changed since the previous round *)
  r_irs : ir_tables;
  r_stages : (stage_key, stage12) Hashtbl.t;
}

(* The callers of [name], its own recursive calls aside, into [tbl]. *)
let add_callers (cg : Callgraph.t) tbl name =
  List.iter
    (fun (e : Callgraph.edge) ->
      if e.e_caller <> name then Hashtbl.replace tbl e.e_caller ())
    (Callgraph.callers_of cg name)

(* One past the largest id of [prog], given the previous round's: only
   the rewritten procedures' bodies are walked, since the unchanged ones
   are the previous round's. *)
let id_ceiling ~prev ~unchanged (prog : Prog.t) =
  List.fold_left
    (fun m (p : Prog.proc) ->
      if unchanged p.pname then m else max m (Ipcp_ir.Lower.proc_id_ceiling p))
    prev.a_facts.f_expr_ceiling prog.procs

(* Everything per procedure is copied from the previous round or computed
   here; a from-scratch prepare is the same code with nothing to copy.
   The call graph copies the call sites of unchanged procedures, and MOD
   summaries copy their direct effects and re-close only what an edit
   can reach — provided the previous round computed them (a lazy that
   was never forced is not kept: it would hold the round before). *)
let prepare_with ?reuse (prog : Prog.t) : artifacts =
  Telemetry.span "prepare" (fun () ->
      let facts =
        match reuse with
        | Some (prev, unchanged) ->
          Jump_function.facts
            ~expr_ceiling:(id_ceiling ~prev ~unchanged prog)
            prog
        | None -> Jump_function.facts prog
      in
      let reuse =
        match reuse with
        | Some (prev, unchanged) when facts.f_globals = prev.a_facts.f_globals
          ->
          Some (prev, unchanged)
        | Some _ (* every IR embeds the global list: rebuild them all *)
        | None ->
          None
      in
      let cg, modref =
        match reuse with
        | Some (prev, unchanged) ->
          let cg = Callgraph.build_reusing ~prev:prev.a_cg ~unchanged prog in
          let modref =
            if Lazy.is_val prev.a_modref then
              let prev_modref = Lazy.force prev.a_modref in
              lazy (Modref.compute_reusing ~prev:prev_modref ~unchanged cg)
            else lazy (Modref.compute cg)
          in
          (cg, modref)
        | None ->
          let cg = Callgraph.build prog in
          (cg, lazy (Modref.compute cg))
      in
      {
        a_prog = prog;
        a_cg = cg;
        a_facts = facts;
        a_modref = modref;
        a_worst = lazy (Modref.worst_case cg);
        a_irs = { it_mod = Hashtbl.create 64; it_worst = Hashtbl.create 64 };
        a_stages = Hashtbl.create 4;
        a_reuse =
          Option.map
            (fun (prev, unchanged) ->
              {
                r_unchanged = unchanged;
                r_main_data = prev.a_facts.f_main_data;
                r_mod_stable =
                  lazy
                    (match Modref.mod_changes (Lazy.force modref) with
                    | None -> fun _ -> false
                    | Some changed ->
                      let tainted = Hashtbl.create 16 in
                      List.iter (add_callers cg tainted) changed;
                      fun name -> not (Hashtbl.mem tainted name));
                r_irs = prev.a_irs;
                r_stages = prev.a_stages;
              })
            reuse;
      })

let prepare prog = prepare_with prog

let artifacts_prog (a : artifacts) = a.a_prog
let expr_ceiling (a : artifacts) = a.a_facts.f_expr_ceiling
let find_proc (a : artifacts) name = Hashtbl.find_opt a.a_facts.f_procs name

let global_data (a : artifacts) : (string * int option) list =
  List.map
    (fun (g : Prog.global) ->
      ( Prog.global_key g,
        a.a_facts.f_main_data
          { Prog.vname = g.gname; vty = g.gty; vdims = g.gdims;
            vkind = Kglobal g } ))
    a.a_facts.f_globals
  |> List.sort compare

let prepare_reusing ~prev ~unchanged prog =
  prepare_with ~reuse:(prev, unchanged) prog

(* ------------------------------------------------------------------ *)
(* Stages 1 and 2, per (use_mod × return_jfs) variant.                 *)

(* A procedure's callers observe it only through its summary: the MOD
   footprint (which formals and globals it may modify — the call-kill
   sets) and its return jump function (what a call leaves behind).  So an
   unchanged procedure keeps last round's IR and stage-1/2 products while
   no callee's summary changed; the checks below read the sets of callers
   of changed summaries instead of comparing every callee's. *)

(* Under computed MOD, [name]'s call kills are stable when no callee's
   MOD footprint changed since last round; worst-case kills are the same
   on both sides. *)
let mod_stable (r : reuse) ~use_mod name =
  (not use_mod) || Lazy.force r.r_mod_stable name

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
      | Some r when r.r_unchanged name && mod_stable r ~use_mod name ->
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

(* Main's symbolic values read the load-time [data] values of every unit
   (from the current facts, in {!Jump_function.with_oracle}), so for main
   an unchanged body is not enough: every global's load-time value must
   be unchanged too.  (Main's own locals are part of its body.) *)
let entry_stable (a : artifacts) (r : reuse) ~use_mod name =
  (Hashtbl.find a.a_facts.f_procs name).pkind <> Prog.Pmain
  || List.for_all
       (fun (_, v) -> r.r_main_data v = a.a_facts.f_main_data v)
       (ir_for a ~use_mod name).ps_global_vars

(* The previous round's bundle of the same variant, if any. *)
let prev_stage (a : artifacts) (key : stage_key) =
  match a.a_reuse with
  | None -> None
  | Some r -> Option.map (fun p -> (r, p)) (Hashtbl.find_opt r.r_stages key)

(* [name] may keep last round's stage-1/2 products: its body and entry
   constants are unchanged, and no callee's MOD footprint or return jump
   function ([ret_tainted] holds the callers of changed ones) differs
   from last round's — the values those products are built from see
   callees through nothing else. *)
let copyable (a : artifacts) (r : reuse) (key : stage_key) ~ret_tainted name =
  r.r_unchanged name
  && mod_stable r ~use_mod:key.sk_use_mod name
  && (not (Hashtbl.mem ret_tainted name))
  && entry_stable a r ~use_mod:key.sk_use_mod name

let sites_table (s : stage12) kind =
  match Hashtbl.find_opt s.sg_sites kind with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace s.sg_sites kind tbl;
    tbl

(* Stage 2's forward jump functions of [name] for [kind], copied under
   {!copyable}, with the finished return-jump-function sets (a variant
   without return jump functions has no oracle to observe them, and
   leaves both sets empty).  [name]'s own return jump function must be
   equal too: a recursive call's sites see it, and a cycle member's can
   change with the order stage 1 builds the cycle in. *)
let reused_sites (a : artifacts) (key : stage_key) (stage : stage12) kind name =
  match prev_stage a key with
  | None -> None
  | Some (r, prev) -> (
    match Option.bind (Hashtbl.find_opt prev.sg_sites kind) (fun tbl ->
              Hashtbl.find_opt tbl name) with
    | None -> None
    | Some _ as sites ->
      if
        (not (Hashtbl.mem stage.sg_ret_changed name))
        && copyable a r key ~ret_tainted:stage.sg_ret_tainted name
      then sites
      else None)

(* The site jump functions of [name] for [kind], memoized in the bundle:
   {!solve} and an incremental update's comparison ask for the same
   lists. *)
let sites_for (a : artifacts) (key : stage_key) (stage : stage12) kind name =
  let tbl = sites_table stage kind in
  match Hashtbl.find_opt tbl name with
  | Some sites -> sites
  | None ->
    let sites =
      match reused_sites a key stage kind name with
      | Some sites ->
        Telemetry.incr "driver.site_jfs_reused";
        sites
      | None ->
        Jump_function.build_site_jfs ~kind (Hashtbl.find stage.sg_irs name)
    in
    Hashtbl.replace tbl name sites;
    sites

let build_stage12 (a : artifacts) (key : stage_key) : stage12 =
  let modref =
    if key.sk_use_mod then Lazy.force a.a_modref else Lazy.force a.a_worst
  in
  let ir_for = ir_for a ~use_mod:key.sk_use_mod in
  let ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t = Hashtbl.create 16 in
  let ret_changed = Hashtbl.create 16 and ret_tainted = Hashtbl.create 16 in
  let prev = prev_stage a key in
  (* Stage 1's return jump function of [name], copied under {!copyable}.
     Callees come first (stage 1 runs bottom-up), so [ret_tainted] is
     final for [name] when it is asked. *)
  let reused_ret_jf name =
    match prev with
    | Some (r, prev) when copyable a r key ~ret_tainted name ->
      Hashtbl.find_opt prev.sg_ret_jfs name
    | Some _ | None -> None
  in
  (* ---- stage 1: return jump functions, bottom-up ---- *)
  Telemetry.span "stage1:return_jfs" (fun () ->
      if key.sk_return_jfs then begin
        let oracle = Jump_function.oracle_of_table ret_jfs in
        (* A member of a cycle of several procedures is built from the
           entries its cycle-mates left in the table before it, and that
           order can change with the rest of the program: never copied. *)
        List.iter
          (fun scc ->
            let cyclic = List.compare_length_with scc 1 > 0 in
            List.iter
              (fun name ->
                let rj =
                  match if cyclic then None else reused_ret_jf name with
                  | Some rj ->
                    Telemetry.incr "driver.stage12_reused";
                    rj
                  | None ->
                    let rj =
                      Jump_function.build_ret_jf ~modref
                        (Jump_function.with_oracle ~oracle a.a_facts
                           (ir_for name))
                    in
                    (match prev with
                    | None -> ()
                    | Some (_, prev) -> (
                      match Hashtbl.find_opt prev.sg_ret_jfs name with
                      | Some old when Jump_function.ret_jf_equal old rj -> ()
                      | Some _ | None ->
                        Hashtbl.replace ret_changed name ();
                        add_callers a.a_cg ret_tainted name));
                    rj
                in
                Hashtbl.replace ret_jfs name rj)
              scc)
          a.a_cg.Callgraph.sccs
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
            (Jump_function.with_oracle ?oracle a.a_facts (ir_for name)))
        (Callgraph.top_down a.a_cg));
  {
    sg_modref = modref;
    sg_ret_jfs = ret_jfs;
    sg_irs = irs;
    sg_sites = Hashtbl.create 4;
    sg_ret_changed = ret_changed;
    sg_ret_tainted = ret_tainted;
  }

let stage_key (config : Config.t) =
  { sk_use_mod = config.use_mod; sk_return_jfs = config.return_jfs }

let stage12_for (a : artifacts) (config : Config.t) : stage12 =
  let key = stage_key config in
  match Hashtbl.find_opt a.a_stages key with
  | Some s -> s
  | None ->
    let s = build_stage12 a key in
    Hashtbl.replace a.a_stages key s;
    s

let site_jfs_for (a : artifacts) (config : Config.t) (name : string) :
    Jump_function.site_jf list =
  if not config.interprocedural then []
  else
    let stage = stage12_for a config in
    if Hashtbl.mem stage.sg_irs name then
      sites_for a (stage_key config) stage config.kind name
    else []

(* ------------------------------------------------------------------ *)
(* Stages 3 and 4: the config-dependent suffix.                       *)

(** The return-jump-function oracle of this analysis (if enabled). *)
let oracle (t : t) : Ssa_value.oracle option =
  if t.config.return_jfs then Some (Jump_function.oracle_of_table t.ret_jfs)
  else None

(** Budget reasons of the propagation stage (empty on a precise run). *)
let degraded (t : t) : Ipcp_support.Budget.reason list =
  t.solution.Solver.degraded

let propagate (config : Config.t) cg ~site_jfs ~global_data : Solver.result
    =
  let prog = cg.Callgraph.prog in
  if config.interprocedural then
    Solver.run ~budget:(Config.budget config) ~analysis:config.analysis cg
      ~site_jfs ~global_data
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
                Prog.Param_map.add (Prog.Pformal i) Copy_lattice.Bottom m
              | _ -> m)
            Prog.Param_map.empty p.pformals
        in
        let m =
          List.fold_left
            (fun m (key, _) ->
              Prog.Param_map.add (Prog.Pglob key) Copy_lattice.Bottom m)
            m global_data
        in
        Hashtbl.replace vals p.pname m)
      prog.procs;
    { Solver.vals; stats = Solver.fresh_stats (); degraded = [] }
  end

(** Run the config-dependent stages over shared artifacts.  [kept] is
    asked once the site jump functions are built: a fixpoint it returns
    still holds for these artifacts and is taken as stage 3's, and no
    propagation runs. *)
let solve ?kept (config : Config.t) (a : artifacts) : t =
  Telemetry.span "solve" (fun () ->
    let stage = stage12_for a config in
    (* forward jump functions restricted to the configured kind *)
    let site_jfs =
      Telemetry.span "stage2:forward_jfs" (fun () ->
          if not config.interprocedural then []
          else
            let key = stage_key config in
            List.concat_map
              (sites_for a key stage config.kind)
              (Callgraph.top_down a.a_cg))
    in
    (* ---- stage 3: interprocedural propagation ---- *)
    let solution =
      Telemetry.span "stage3:propagate" (fun () ->
          match Option.bind kept (fun kept -> kept ()) with
          | Some solution -> solution
          | None ->
            let solution =
              propagate config a.a_cg ~site_jfs
                ~global_data:(global_data a)
            in
            Telemetry.add ("jf.eval." ^ Jump_function.kind_name config.kind)
              solution.Solver.stats.jf_evaluations;
            solution)
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
            sccps = Hashtbl.create 64;
            substs = Hashtbl.create 64;
            keep_sccps = false;
          }
        in
        if Telemetry.enabled () then
          Telemetry.add "driver.constants_found"
            (List.fold_left
               (fun acc (p : Prog.proc) ->
                 acc + List.length (Solver.constants_of solution p.pname))
               0 a.a_prog.procs);
        t))

(** Run the full pipeline on a resolved program (compatibility
    wrapper; prefer {!prepare} + {!solve}, which share artifacts
    across configurations). *)
let analyze (config : Config.t) (prog : Prog.t) : t =
  Telemetry.span "analyze" (fun () -> solve config (prepare prog))

(** CONSTANTS(p) for every procedure, in program order. *)
let constants (t : t) : (string * (Prog.param * int) list) list =
  List.map
    (fun (p : Prog.proc) -> (p.pname, Solver.constants_of t.solution p.pname))
    t.prog.procs

(** Total number of (procedure, parameter) constant facts. *)
let constants_count (t : t) =
  List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 (constants t)

(** Entry-value environment for a procedure, as consumed by SCCP: the
    constant (if any) each formal/global holds on entry.  Facts with
    no constant reading (a copy, say) seed nothing — SCCP consumes
    integers, and [Copy_lattice.const_value] is the bridge. *)
let entry_env (t : t) (ir : Jump_function.proc_ir) : Prog.var -> int option
    =
 fun v ->
  let proc = ir.pi_proc in
  if v.vty <> Prog.Tint || Prog.is_array v then None
  else
    match v.vkind with
    | Prog.Kformal i ->
      Copy_lattice.const_value
        (Solver.lookup t.solution proc.pname (Prog.Pformal i))
    | Prog.Kglobal g ->
      Copy_lattice.const_value
        (Solver.lookup t.solution proc.pname (Prog.Pglob (Prog.global_key g)))
    | Prog.Klocal when proc.pkind = Prog.Pmain ->
      (* data-initialized locals of the main program hold their
         load-time values on entry *)
      ir.pi_entry_const v
    | Prog.Klocal | Prog.Kresult -> None

(** SCCP for one procedure, seeded with the discovered entry facts:
    the memoized result when there is one, otherwise a fresh run, which
    is recorded unless [record] is false.  Each run creates a fresh
    budget from the configuration, so parallel per-procedure runs share
    no mutable budget state. *)
let sccp_for ?(record = true) (t : t) (name : string) : Sccp.result =
  match Hashtbl.find_opt t.sccps name with
  | Some r -> r
  | None ->
    let ir = Hashtbl.find t.irs name in
    let r =
      Sccp.run ~budget:(Config.budget t.config) ?oracle:(oracle t)
        ~entry_env:(entry_env t ir) ir.Jump_function.pi_ssa
    in
    if record then Hashtbl.replace t.sccps name r;
    r

let pp_constants ppf (t : t) =
  let param_name = Prog.param_name t.prog in
  List.iter
    (fun (proc : Prog.proc) ->
      match Solver.constants_of t.solution proc.pname with
      | [] -> ()
      | cs ->
        Fmt.pf ppf "%s: %a@." proc.pname
          (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (param, c) ->
               Fmt.pf ppf "%s=%d" (param_name proc param) c))
          cs)
    t.prog.procs
