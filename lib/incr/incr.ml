(** Incremental re-analysis sessions.

    A session holds one analyzed program version: the (grafted) resolved
    program, its prepared artifacts and the solved
    {!Ipcp_core.Driver.t}.  {!update} analyzes the next version with
    output byte-identical to a from-scratch {!Ipcp_core.Driver.analyze}
    of the same source.  Propagation is bounded by the {e dependence
    cone} of the edit, and every per-procedure product whose inputs are
    unchanged is copied: call sites, direct MOD/REF effects, IR, return
    and site jump functions ({!Ipcp_core.Driver.prepare_reusing}), SCCP
    results and substitutions (here).  What an update still does for
    every procedure is cheap: compare it with its predecessor, and copy
    or look up its per-procedure entries.  At 1600 and 10000 procedures
    an update costs about a quarter of a fresh {!start} after an edit
    outside main, and a third after one in main, which calls half the
    program (DESIGN.md §10 has the split).  The steps:

    {ol
    {- {b Identity and grafting.}  A procedure structurally equal to its
       predecessor ({!Ipcp_frontend.Prog.equal_proc}: every field but ids
       and locations, display names included) keeps the previous
       version's physical [Prog.proc] value in the analyzed program.
       This is the only procedure identity: a procedure of both versions
       that is not grafted is {e changed}, an α-renamed one included.
       [Sema] assigns expression/statement ids program-wide, so an edit
       in one procedure renumbers every later one; grafting keeps the ids
       of unchanged procedures stable, which is what lets
       {!Ipcp_core.Driver.prepare_reusing} hand their call sites, IR and
       stage-1/2 products straight to the new round (every id is only
       ever used within its own procedure — SCCP tables, DCE,
       substitution and cloning are all per-procedure).}
    {- {b Cone computation.}  A callee learns about its callers only
       through the jump function at each call site (paper §2), so an
       edit can move the fixpoint only below a call site whose jump
       function changed.  Each procedure of either version is visited
       once.  A site list that [prepare_reusing] copied is physically
       the previous version's ({!Ipcp_core.Driver.site_jfs_for}), and is
       skipped: the copy rule already proved it equal.  The others are
       compared with the previous list pairwise (positionally: grafted
       callers keep their site ids, reparsed ones are renumbered, so ids
       don't travel across versions), and the callees of the sites that
       differ are seeds; a procedure present in one version only, or
       whose site count changed, seeds every callee of its sites.
       Procedures whose VAL domain redraws seed themselves: an added
       procedure has no previous fixpoint, an arity change redraws the
       map's keys, and main restarts when the load-time [data] map
       changed (main's initial global values read every unit's [data]
       statements).  The seeds close under new-graph callees: a dirty
       procedure's VAL map feeds its callees' jump-function
       evaluations.}
    {- {b Seeded solving.}  Everything outside the cone keeps the
       previous fixpoint map; the cone restarts from its optimistic
       initial values and {!Ipcp_core.Solver.run_seeded} drains only the
       edges into it.  The meet-semilattice iteration is
       order-independent, so the seeded fixpoint equals the from-scratch
       one — byte-identical output, enforced by the certifier and the
       [fuzz --delta] gate.}
    {- {b SCCP seeding.}  The new result's SCCP and substitution memos
       take the previous result's entries for every procedure whose SSA
       is physically the copied one, whose VAL map is equal and whose
       callees' return jump functions are equal: SCCP reads nothing
       else, and the rewrite reads SCCP's result, the body and the
       callees' MOD footprints, which a copied SSA already implies.}}

    Whole-program fallbacks (still byte-identical, just not cheaper)
    copy nothing from the previous version: a budgeted configuration
    (seeding under a step/deadline budget would widen differently than
    a from-scratch run), the intraprocedural baseline, a changed
    global-key set (every VAL map's domain changes), and a renamed main
    program.

    [incr.update] has a span per phase: [incr.identity] (the structural
    comparison), [incr.graft], [prepare], [incr.cone] (which forces
    MOD/REF and the stage-1/2 bundle) and [solve];
    [incr.site_lists_compared] counts the site lists the cone compares
    pairwise. *)

open Ipcp_frontend
open Ipcp_analysis
open Ipcp_core
module Telemetry = Ipcp_telemetry.Telemetry

type stats = {
  total_procs : int;
  changed_procs : int;  (** present in both versions, not grafted *)
  grafted_procs : int;
      (** structurally equal to their predecessor, physically reused *)
  cone_size : int;  (** dirty procedures re-solved *)
  procs_reused : int;  (** solution maps seeded from the previous fixpoint *)
  procs_resolved : int;  (** = [cone_size] *)
  full_resolve : bool;  (** whole-program fallback was taken *)
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "cone %d/%d procs (%d changed), %d reused, %d grafted%s"
    s.cone_size s.total_procs s.changed_procs s.procs_reused s.grafted_procs
    (if s.full_resolve then ", full re-solve" else "")

(* ------------------------------------------------------------------ *)
(* Sessions for one analysis.                                          *)

module Make (A : Analysis_sig.S) = struct
  module D = Driver.Make (A)

  type session = {
    s_config : Config.t;
    s_prog : Prog.t;  (** the grafted program this version was analyzed as *)
    s_artifacts : Driver.artifacts;
    s_result : A.L.t Driver.analysis_result;
  }

  let result s = s.s_result
  let config s = s.s_config
  let prog s = s.s_prog

  (* A session's result keeps the SCCP results and rewrites its rendering
     computes: the next update copies them. *)
  let solved t = { t with Driver.keep_sccps = true }

  let start (config : Config.t) (prog : Prog.t) : session =
    let artifacts = Driver.prepare prog in
    let t = solved (D.solve config artifacts) in
    { s_config = config; s_prog = prog; s_artifacts = artifacts; s_result = t }

  (* The load-time initialization map of the globals: main's entry values
     depend on every unit's [data] statements, so a change here dirties
     main even when main's own body is untouched. *)
  let data_map (prog : Prog.t) : (string * int option) list =
    let data = Prog.main_data prog in
    Prog.all_globals prog
    |> List.map (fun (g : Prog.global) ->
           ( Prog.global_key g,
             data
               { Prog.vname = g.gname; vty = g.gty; vdims = g.gdims;
                 vkind = Kglobal g } ))
    |> List.sort compare

  let global_key_set prog =
    List.sort compare (List.map Prog.global_key (Prog.all_globals prog))

  (* ------------------------------------------------------------------ *)
  (* Id renumbering.

     Grafting mixes procedures from different parses, and [Sema] numbers
     expression/statement ids per parse — so a grafted program would
     contain colliding ids across procedures.  Several tables are keyed by
     bare id program-wide (call sites in the call graph, the certifier's
     execution-witness claims), so collisions cross-wire unrelated
     procedures.  Every update therefore renumbers the {e freshly parsed}
     procedures from the previous version's id ceiling, above every id a
     grafted procedure can carry; grafted procedures keep their ids
     untouched (their copied call sites and IR embed them).  By induction
     the session invariant holds: a session's program always has globally
     unique ids. *)

  let renumber_proc (next : int ref) (p : Prog.proc) : Prog.proc =
    let open Prog in
    let fresh () =
      let id = !next in
      incr next;
      id
    in
    let rec expr (e : expr) : expr =
      let eid = fresh () in
      { e with eid; edesc = edesc e.edesc }
    and edesc = function
      | (Cint _ | Creal _ | Cbool _ | Cstr _ | Evar _) as d -> d
      | Earr (v, es) -> Earr (v, List.map expr es)
      | Ecall (f, es) -> Ecall (f, List.map expr es)
      | Eintr (i, es) -> Eintr (i, List.map expr es)
      | Eun (op, e) -> Eun (op, expr e)
      | Ebin (op, a, b) -> Ebin (op, expr a, expr b)
    and lhs = function
      | Lvar v -> Lvar v
      | Larr (v, es) -> Larr (v, List.map expr es)
    and stmt (s : stmt) : stmt =
      let sid = fresh () in
      { s with sid; sdesc = sdesc s.sdesc }
    and sdesc = function
      | Sassign (l, e) -> Sassign (lhs l, expr e)
      | Scall (f, es) -> Scall (f, List.map expr es)
      | Sif (arms, els) ->
        Sif
          ( List.map (fun (c, b) -> (expr c, List.map stmt b)) arms,
            List.map stmt els )
      | Sdo (v, lo, hi, step, b) ->
        Sdo (v, expr lo, expr hi, Option.map expr step, List.map stmt b)
      | Sdowhile (c, b) -> Sdowhile (expr c, List.map stmt b)
      | (Sgoto _ | Scontinue | Sreturn | Sstop) as d -> d
      | Sprint es -> Sprint (List.map expr es)
      | Sread ls -> Sread (List.map lhs ls)
    in
    { p with pbody = List.map stmt p.pbody }

  (* Seed [t]'s SCCP and substitution memos from [prev]'s.  A procedure's
     SCCP reads its SSA, its entry VAL map and, through the oracle, its
     callees' return jump functions (and the configuration, which a
     session keeps); its rewrite reads that SCCP result, its body and its
     callees' MOD footprints, which a physically copied SSA already
     implies.  Where the SSA is physically the copied one and the other
     two are equal, [prev]'s entries are the ones a fresh run would
     compute.  Returns the number of SCCP results copied. *)
  let inherit_sccps ~(prev : A.L.t Driver.analysis_result)
      (t : A.L.t Driver.analysis_result) : int =
    let ret_stable callee =
      (not t.config.Config.return_jfs)
      || Option.equal Jump_function.ret_jf_equal
           (Hashtbl.find_opt prev.ret_jfs callee)
           (Hashtbl.find_opt t.ret_jfs callee)
    in
    let vals_equal name =
      Option.equal
        (fun a b -> a == b || Prog.Param_map.equal A.L.equal a b)
        (Hashtbl.find_opt prev.solution.Solver.vals name)
        (Hashtbl.find_opt t.solution.Solver.vals name)
    in
    let copied = ref 0 in
    Hashtbl.iter
      (fun name r ->
        match (Hashtbl.find_opt prev.irs name, Hashtbl.find_opt t.irs name) with
        | Some (old_ir : Jump_function.proc_ir), Some ir
          when old_ir.pi_ssa == ir.pi_ssa
               && vals_equal name
               && List.for_all
                    (fun (e : Callgraph.edge) -> ret_stable e.e_callee)
                    (Callgraph.callees_of t.cg name) ->
          Hashtbl.replace t.sccps name r;
          Option.iter (Hashtbl.replace t.substs name)
            (Hashtbl.find_opt prev.substs name);
          incr copied
        | _ -> ())
      prev.sccps;
    !copied

  (* Two versions' jump functions at one call site position agree. *)
  let site_jf_equal (x : Jump_function.site_jf) (y : Jump_function.site_jf) =
    x.Jump_function.sf_callee = y.Jump_function.sf_callee
    && Array.length x.sf_formals = Array.length y.sf_formals
    && Array.for_all2 Symbolic.equal x.sf_formals y.sf_formals
    && List.equal
         (fun (k1, s1) (k2, s2) -> k1 = k2 && Symbolic.equal s1 s2)
         x.sf_globals y.sf_globals

  let update ~(prev : session) (prog_new : Prog.t) : session * stats =
    Telemetry.span "incr.update" @@ fun () ->
    let config = prev.s_config in
    let prev_proc = Driver.find_proc prev.s_artifacts in
    (* identity: a procedure structurally equal to its predecessor is
       grafted, the predecessor's physical value kept *)
    let grafted : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let changed = ref 0 in
    let picked =
      Telemetry.span "incr.identity" (fun () ->
          List.map
            (fun (p : Prog.proc) ->
              match prev_proc p.pname with
              | Some old_p when Prog.equal_proc old_p p ->
                Hashtbl.replace grafted p.pname ();
                `Grafted old_p
              | Some _ ->
                incr changed;
                `Fresh p
              | None -> `Fresh p)
            prog_new.procs)
    in
    let unchanged name = Hashtbl.mem grafted name in
    let prog' =
      Telemetry.span "incr.graft" (fun () ->
          (* fresh procedures number from the previous ceiling (see the
             header) *)
          let next = ref (Driver.expr_ceiling prev.s_artifacts) in
          let procs' =
            List.map
              (function `Grafted p -> p | `Fresh p -> renumber_proc next p)
              picked
          in
          { prog_new with procs = procs' })
    in
    let budgeted =
      config.Config.max_steps <> None || config.Config.deadline_ms <> None
    in
    let full =
      budgeted
      || (not config.Config.interprocedural)
      || global_key_set prev.s_prog <> global_key_set prog_new
      || prev.s_prog.main <> prog_new.main
    in
    (* a whole-program fallback copies nothing from the previous round *)
    let artifacts =
      if full then Driver.prepare prog'
      else Driver.prepare_reusing ~prev:prev.s_artifacts ~unchanged prog'
    in
    let new_proc = Driver.find_proc artifacts in
    let dirty : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    if not full then begin
      Telemetry.span "incr.cone" @@ fun () ->
      let cg = Driver.artifacts_callgraph artifacts in
      (* A dirty procedure's VAL map feeds every jump function at its
         sites, so the cone closes under new-graph callees. *)
      let rec mark name =
        if new_proc name <> None && not (Hashtbl.mem dirty name) then begin
          Hashtbl.add dirty name ();
          List.iter
            (fun (e : Callgraph.edge) -> mark e.e_callee)
            (Callgraph.callees_of cg name)
        end
      in
      let mark_all =
        List.iter (fun (sf : Jump_function.site_jf) -> mark sf.sf_callee)
      in
      (* Seeds: the callees of every call site whose jump function
         differs (see the header).  A copied list is the previous one,
         and a procedure of one version has no sites in the other. *)
      let compared = ref 0 in
      let seed_sites name =
        let olds = Driver.site_jfs_for prev.s_artifacts config name
        and news = Driver.site_jfs_for artifacts config name in
        if olds != news then begin
          incr compared;
          if List.compare_lengths olds news = 0 then
            List.iter2
              (fun (o : Jump_function.site_jf) (n : Jump_function.site_jf) ->
                if not (site_jf_equal o n) then begin
                  mark o.sf_callee;
                  mark n.sf_callee
                end)
              olds news
          else begin
            mark_all olds;
            mark_all news
          end
        end
      in
      List.iter
        (fun (p : Prog.proc) ->
          (* an added procedure has no previous VAL map, and an arity
             change redraws its keys *)
          (match prev_proc p.pname with
          | Some old_p
            when List.compare_lengths old_p.pformals p.pformals = 0 ->
            ()
          | Some _ | None -> mark p.pname);
          seed_sites p.pname)
        prog'.procs;
      List.iter
        (fun (p : Prog.proc) ->
          if new_proc p.pname = None then seed_sites p.pname)
        prev.s_prog.procs;
      Telemetry.add "incr.site_lists_compared" !compared;
      if data_map prev.s_prog <> data_map prog_new then mark prog'.main
    end;
    let t =
      solved
        (if full then D.solve config artifacts
         else
           D.solve_seeded config artifacts
             ~prev_vals:prev.s_result.Driver.solution.Solver.vals
             ~dirty:(Hashtbl.mem dirty))
    in
    if not full then
      Telemetry.add "incr.sccp_reused" (inherit_sccps ~prev:prev.s_result t);
    let total = List.length prog'.procs in
    let cone = if full then total else Hashtbl.length dirty in
    let stats =
      {
        total_procs = total;
        changed_procs = !changed;
        grafted_procs = Hashtbl.length grafted;
        cone_size = cone;
        procs_reused = total - cone;
        procs_resolved = cone;
        full_resolve = full;
      }
    in
    if Telemetry.enabled () then begin
      Telemetry.incr "incr.updates";
      Telemetry.add "incr.cone_size" stats.cone_size;
      Telemetry.add "incr.procs_reused" stats.procs_reused;
      Telemetry.add "incr.procs_resolved" stats.procs_resolved;
      if full then Telemetry.incr "incr.full_resolves"
    end;
    ( {
        s_config = config;
        s_prog = prog';
        s_artifacts = artifacts;
        s_result = t;
      },
      stats )
end

include Make (Const_analysis)
