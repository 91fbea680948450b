(** Incremental re-analysis sessions.

    A session holds one analyzed program version: the (grafted) resolved
    program, its prepared artifacts and the solved
    {!Ipcp_core.Driver.t}.  {!update} analyzes the next version with
    output byte-identical to a from-scratch {!Ipcp_core.Driver.analyze}
    of the same source.  Every per-procedure product whose inputs are
    unchanged is copied: call sites, direct MOD/REF effects, IR, return
    and site jump functions ({!Ipcp_core.Driver.prepare_reusing}), SCCP
    results and substitutions (here).  Propagation either keeps the
    previous fixpoint or runs again over the whole program.  The steps:

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
    {- {b The fixpoint, kept or solved again.}  Propagation reads nothing
       of a procedure but its arity, the jump functions at its call
       sites (paper §2) and, for main, the load-time [data] values of the
       globals.  When main keeps its name, the procedures are the same
       by name and arity, every global keeps its key and [data] value
       (read off both versions' prepared facts,
       {!Ipcp_core.Driver.global_data}) and every site jump-function list
       equals the previous one, the previous fixpoint is this version's:
       stage 3 takes it and does no work.  A list that [prepare_reusing]
       copied is physically the previous one
       ({!Ipcp_core.Driver.site_jfs_for}) and is skipped; the others are
       compared pairwise (positionally: grafted callers keep their site
       ids, reparsed ones are renumbered, so ids don't travel across
       versions), stopping at the first difference.  Any other update
       solves the whole program again.  A dependence cone re-solved by a
       seeded solver was tried and deleted: apart from the empty cone,
       which this rule keeps, it saved less propagation than working the
       cone out cost (DESIGN.md §10).}
    {- {b SCCP seeding.}  The new result's SCCP and substitution memos
       take the previous result's entries for every procedure whose SSA
       is physically the copied one, whose VAL map is equal and whose
       callees' return jump functions are equal: SCCP reads nothing
       else, and the rewrite reads SCCP's result, the body and the
       callees' MOD footprints, which a copied SSA already implies.}}

    A budgeted configuration is the one whole-program fallback (still
    byte-identical, just not cheaper): it copies nothing from the
    previous version, since how much a budgeted run does depends on the
    run (a deadline reads the clock).  Every other update takes the
    steps above.  A changed global list makes [prepare_reusing] copy
    nothing (every IR embeds it), and a changed global-key set or a
    renamed main (whose entry values seed the whole fixpoint) fails the
    kept-fixpoint check.  The intraprocedural baseline propagates
    nothing: its fixpoint (every entry ⊥) is kept by the same check,
    and everything else is copied as for any configuration.

    [incr.update] has a span per phase: [incr.identity] (the structural
    comparison), [incr.graft], [prepare] and [solve], which builds the
    site jump functions under its [stage2:forward_jfs] span and then
    compares them under [incr.compare];
    [incr.site_lists_compared] counts the site lists compared
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
  cone_size : int;  (** procedures solved again: none or all *)
  procs_reused : int;  (** procedures whose VAL map the kept fixpoint gave *)
  procs_resolved : int;  (** = [cone_size] *)
  full_resolve : bool;  (** the budgeted fallback was taken *)
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "%s, %d procs (%d changed, %d grafted)%s"
    (if s.cone_size = 0 then "fixpoint kept" else "re-solved")
    s.total_procs s.changed_procs s.grafted_procs
    (if s.full_resolve then ", nothing copied" else "")

(* ------------------------------------------------------------------ *)
(* Sessions.                                                           *)

type session = {
  s_config : Config.t;
  s_prog : Prog.t;  (** the grafted program this version was analyzed as *)
  s_artifacts : Driver.artifacts;
  s_result : Driver.t;
}

let result s = s.s_result
let config s = s.s_config
let prog s = s.s_prog

(* A session's result keeps the SCCP results and rewrites its rendering
   computes: the next update copies them. *)
let solved t = { t with Driver.keep_sccps = true }

let start_prepared (config : Config.t) (artifacts : Driver.artifacts) :
    session =
  {
    s_config = config;
    s_prog = Driver.artifacts_prog artifacts;
    s_artifacts = artifacts;
    s_result = solved (Driver.solve config artifacts);
  }

let start config prog = start_prepared config (Driver.prepare prog)

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
let inherit_sccps ~(prev : Driver.t) (t : Driver.t) : int =
  let ret_stable callee =
    (not t.config.Config.return_jfs)
    || Option.equal Jump_function.ret_jf_equal
         (Hashtbl.find_opt prev.ret_jfs callee)
         (Hashtbl.find_opt t.ret_jfs callee)
  in
  let vals_equal name =
    Option.equal
      (fun a b -> a == b || Prog.Param_map.equal Copy_lattice.equal a b)
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
  (* a budgeted configuration copies nothing from the previous round *)
  let full =
    config.Config.max_steps <> None || config.Config.deadline_ms <> None
  in
  let artifacts =
    if full then Driver.prepare prog'
    else Driver.prepare_reusing ~prev:prev.s_artifacts ~unchanged prog'
  in
  (* The previous fixpoint, if nothing propagation reads changed (see
     the header); asked once [solve] has built the site lists. *)
  let prev_solution = prev.s_result.Driver.solution in
  let kept () =
    Telemetry.span "incr.compare" @@ fun () ->
    let compared = ref 0 in
    let same_sites name =
      let olds = Driver.site_jfs_for prev.s_artifacts config name
      and news = Driver.site_jfs_for artifacts config name in
      olds == news
      || begin
           incr compared;
           List.equal site_jf_equal olds news
         end
    in
    let same =
      prog'.main = prev.s_prog.main
      && List.compare_lengths prog'.procs prev.s_prog.procs = 0
      && Driver.global_data prev.s_artifacts = Driver.global_data artifacts
      && List.for_all
           (fun (p : Prog.proc) ->
             match prev_proc p.pname with
             | Some old_p ->
               List.compare_lengths old_p.pformals p.pformals = 0
               && same_sites p.pname
             | None -> false)
           prog'.procs
    in
    Telemetry.add "incr.site_lists_compared" !compared;
    if same then
      (* fresh counters: keeping the fixpoint did no solver work *)
      Some { prev_solution with Solver.stats = Solver.fresh_stats () }
    else None
  in
  let t =
    solved
      (Driver.solve ?kept:(if full then None else Some kept) config artifacts)
  in
  if not full then
    Telemetry.add "incr.sccp_reused" (inherit_sccps ~prev:prev.s_result t);
  let total = List.length prog'.procs in
  (* a kept fixpoint is the previous version's table itself *)
  let cone =
    if t.Driver.solution.Solver.vals == prev_solution.Solver.vals then 0
    else total
  in
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
