(** Incremental re-analysis sessions.

    A session holds one analyzed program version: the (grafted) resolved
    program, its prepared artifacts, the per-procedure strict/semantic
    hashes, and the solved {!Ipcp_core.Driver.t}.  {!update} analyzes
    the next version at a cost proportional to the {e dependence cone}
    of the edit rather than the program size, with output byte-identical
    to a from-scratch {!Ipcp_core.Driver.analyze} of the same source:

    {ol
    {- {b Grafting.}  Procedures whose strict hash is unchanged keep the
       previous version's physical [Prog.proc] value in the analyzed
       program.  [Sema] assigns expression/statement ids program-wide,
       so an edit in one procedure renumbers every later one; grafting
       keeps the ids of unchanged procedures stable, which is what lets
       {!Ipcp_core.Driver.prepare_reusing} hand their stage-1/2 IR
       bundles straight to the new round (every id is only ever used
       within its own procedure — SCCP tables, DCE, substitution and
       cloning are all per-procedure).}
    {- {b Cone computation.}  Two closures over the semantic diff.
       First the {e summary-dirty} set: changed/added/removed
       procedures closed under callers in both graphs — a callee's MOD
       set and return jump-function behaviour fold into its caller's
       summaries, so summary changes travel {e up} the graph.  Then the
       dirty cone: the callees (old and new graphs) of every
       summary-dirty procedure — each gains, loses or changes a meet
       contribution — plus changed/added procedures themselves and the
       main program when the load-time [data] map changed (main's
       initial global values scan every unit's [data] statements),
       closed under new-graph callees: a dirty procedure's VAL map
       feeds its callees' jump-function evaluations.}
    {- {b Seeded solving.}  Everything outside the cone keeps the
       previous fixpoint map; the cone restarts from its optimistic
       initial values and {!Ipcp_core.Solver.run_seeded} drains only the
       edges into it.  The meet-semilattice iteration is
       order-independent, so the seeded fixpoint equals the from-scratch
       one — byte-identical output, enforced by the certifier and the
       [fuzz --delta] gate.}}

    Whole-program fallbacks (still byte-identical, just not cheaper):
    a budgeted configuration (seeding under a step/deadline budget would
    widen differently than a from-scratch run), the intraprocedural
    baseline, a changed global-key set (every VAL map's domain changes),
    and a renamed main program. *)

open Ipcp_frontend
open Ipcp_analysis
open Ipcp_core
module Telemetry = Ipcp_telemetry.Telemetry

type stats = {
  total_procs : int;
  changed_procs : int;  (** semantic-hash changes (procs present in both) *)
  grafted_procs : int;  (** strict-hash-unchanged, physically reused *)
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
    s_strict : (string, string) Hashtbl.t;
    s_sem : (string, string) Hashtbl.t;
    s_result : A.L.t Driver.analysis_result;
  }

  let result s = s.s_result
  let config s = s.s_config
  let prog s = s.s_prog

  let hash_tables prog =
    (Hashing.table Hashing.Strict prog, Hashing.table Hashing.Semantic prog)

  let session_of ~config ~prog ~artifacts ~strict ~sem ~t =
    {
      s_config = config;
      s_prog = prog;
      s_artifacts = artifacts;
      s_strict = strict;
      s_sem = sem;
      s_result = t;
    }

  let start (config : Config.t) (prog : Prog.t) : session =
    let artifacts = Driver.prepare prog in
    let t = D.solve config artifacts in
    let strict, sem = hash_tables prog in
    session_of ~config ~prog ~artifacts ~strict ~sem ~t

  (* The load-time initialization map of the globals: main's entry values
     depend on every unit's [data] statements, so a change here dirties
     main even when main's own body is untouched. *)
  let data_map (prog : Prog.t) : (string * int option) list =
    Prog.all_globals prog
    |> List.map (fun g ->
           let key = Prog.global_key g in
           (key, Prog.data_value_of_global prog key))
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
     procedures above the largest id of the grafted ones; grafted
     procedures keep their ids untouched (their reused stage-1/2 bundles
     embed them).  By induction the session invariant holds: a session's
     program always has globally unique ids. *)

  let max_proc_id (p : Prog.proc) : int =
    let m = ref (-1) in
    Prog.iter_stmts (fun s -> m := max !m s.Prog.sid) p.Prog.pbody;
    Prog.iter_exprs (fun e -> m := max !m e.Prog.eid) p.Prog.pbody;
    !m

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

  let update ~(prev : session) (prog_new : Prog.t) : session * stats =
    Telemetry.span "incr.update" @@ fun () ->
    let config = prev.s_config in
    let strict_new, sem_new = hash_tables prog_new in
    (* the new artifacts keep this predicate: it must hold the previous
       hash table only, not the previous session and all it holds *)
    let strict_prev = prev.s_strict in
    let strict_unchanged name =
      match
        (Hashtbl.find_opt strict_prev name, Hashtbl.find_opt strict_new name)
      with
      | Some a, Some b -> a = b
      | _ -> false
    in
    let prev_proc = Driver.find_proc prev.s_artifacts in
    (* graft: strictly unchanged procedures keep the previous version's
       physical value, so reused IR ids stay consistent *)
    let grafted = ref 0 in
    let grafted_max = ref (-1) in
    let picked =
      List.map
        (fun (p : Prog.proc) ->
          match
            if strict_unchanged p.pname then prev_proc p.pname else None
          with
          | Some old_p ->
            incr grafted;
            grafted_max := max !grafted_max (max_proc_id old_p);
            `Grafted old_p
          | None -> `Fresh p)
        prog_new.procs
    in
    (* fresh procedures renumber above every grafted id (see the header) *)
    let next = ref (!grafted_max + 1) in
    let procs' =
      List.map
        (function `Grafted p -> p | `Fresh p -> renumber_proc next p)
        picked
    in
    let prog' = { prog_new with procs = procs' } in
    let artifacts =
      Driver.prepare_reusing ~prev:prev.s_artifacts ~unchanged:strict_unchanged
        prog'
    in
    let new_proc = Driver.find_proc artifacts in
    let cg_new = Driver.artifacts_callgraph artifacts in
    let cg_old = Driver.artifacts_callgraph prev.s_artifacts in
    let d =
      Diff.compute_with ~old_cg:cg_old ~new_cg:cg_new ~old_sem:prev.s_sem
        ~new_sem:sem_new
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
    let dirty : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    if not full then begin
      (* Stage 1 — transfer-dirty: procedures whose call-site jump
         functions may differ from the previous version.  A procedure's
         transfer depends on its own body and, through the call-kill sets
         and the return oracle, on its callees' summaries (MOD footprint +
         return jump function); nothing else.  Walk from the
         changed/added/removed procedures toward callers, but stop at any
         procedure whose own summary is provably equal in both versions —
         its callers cannot observe the edit at all. *)
      let transfer_dirty : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let rec mark_transfer name =
        if not (Hashtbl.mem transfer_dirty name) then begin
          Hashtbl.add transfer_dirty name ();
          let stable =
            prev_proc name <> None
            && new_proc name <> None
            && Driver.summary_stable config ~prev:prev.s_artifacts artifacts
                 name
          in
          if not stable then begin
            List.iter
              (fun (e : Callgraph.edge) -> mark_transfer e.e_caller)
              (Callgraph.callers_of cg_new name);
            List.iter
              (fun (e : Callgraph.edge) -> mark_transfer e.e_caller)
              (Callgraph.callers_of cg_old name)
          end
        end
      in
      List.iter mark_transfer d.changed_procs;
      List.iter mark_transfer d.added_procs;
      List.iter mark_transfer d.removed_procs;
      (* Stage 2 — the dirty cone: procedures whose entry VAL map may
         differ.  A dirty procedure's VAL feeds every jump function at its
         sites, so the cone closes under new-graph callees. *)
      let rec mark name =
        if new_proc name <> None && not (Hashtbl.mem dirty name)
        then begin
          Hashtbl.add dirty name ();
          List.iter
            (fun (e : Callgraph.edge) -> mark e.e_callee)
            (Callgraph.callees_of cg_new name)
        end
      in
      (* Seeds.  A transfer-dirty procedure contributes only the callees
         whose incoming jump function actually changed: its old and new
         site lists are compared pairwise (positionally — grafted callers
         keep their site ids, reparsed ones are renumbered, so ids don't
         travel across versions).  A procedure present in one version only
         dirties all its sites in that version.  Procedures whose VAL
         domain redraws restart themselves: an added procedure has no
         previous fixpoint, an arity change redraws the map's keys, and
         main restarts when the load-time [data] map changed. *)
      let old_sites : (string, Jump_function.site_jf list) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun (sf : Jump_function.site_jf) ->
          Hashtbl.replace old_sites sf.sf_caller
            (Option.value ~default:[]
               (Hashtbl.find_opt old_sites sf.sf_caller)
            @ [ sf ]))
        prev.s_result.Driver.site_jfs;
      let site_jf_equal (x : Jump_function.site_jf)
          (y : Jump_function.site_jf) =
        x.Jump_function.sf_callee = y.Jump_function.sf_callee
        && Array.length x.sf_formals = Array.length y.sf_formals
        && Array.for_all2 Symbolic.equal x.sf_formals y.sf_formals
        && List.equal
             (fun (k1, s1) (k2, s2) -> k1 = k2 && Symbolic.equal s1 s2)
             x.sf_globals y.sf_globals
      in
      Hashtbl.iter
        (fun name () ->
          let olds = Option.value ~default:[] (Hashtbl.find_opt old_sites name)
          and news = Driver.site_jfs_for artifacts config name in
          match (prev_proc name, new_proc name) with
          | Some _, Some _ when List.length olds = List.length news ->
            List.iter2
              (fun (o : Jump_function.site_jf) (n : Jump_function.site_jf) ->
                if not (site_jf_equal o n) then begin
                  mark o.sf_callee;
                  mark n.sf_callee
                end)
              olds news
          | _ ->
            (* present in one version only, or the call sites themselves
               were redrawn: every site in either version is dirty *)
            List.iter
              (fun (sf : Jump_function.site_jf) -> mark sf.sf_callee)
              olds;
            List.iter
              (fun (sf : Jump_function.site_jf) -> mark sf.sf_callee)
              news)
        transfer_dirty;
      List.iter mark d.added_procs;
      List.iter
        (fun name ->
          match (prev_proc name, new_proc name) with
          | Some op, Some np
            when List.length op.Prog.pformals <> List.length np.Prog.pformals
            ->
            mark name
          | _ -> ())
        d.changed_procs;
      if data_map prev.s_prog <> data_map prog_new then mark prog'.main
    end;
    let t =
      if full then D.solve config artifacts
      else
        D.solve_seeded config artifacts
          ~prev_vals:prev.s_result.Driver.solution.Solver.vals
          ~dirty:(Hashtbl.mem dirty)
    in
    let total = List.length prog'.procs in
    let cone = if full then total else Hashtbl.length dirty in
    let stats =
      {
        total_procs = total;
        changed_procs = List.length d.changed_procs;
        grafted_procs = !grafted;
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
    ( session_of ~config ~prog:prog' ~artifacts ~strict:strict_new ~sem:sem_new
        ~t,
      stats )

  (* ------------------------------------------------------------------ *)
  (* Session persistence.

     A session exports as a manifest plus per-procedure payloads that are
     content-addressed by strict hash — the serve layer stores each piece
     as its own crash-safe cache entry, so consecutive sessions of the
     same connection share the blobs of their unchanged procedures.  Only
     closure-free data travels (resolved procedures, the solution
     fixpoint, the configuration): stage-1/2 bundles embed oracle
     closures and are rebuilt on demand after import.  Importing seeds
     the solve entirely from the persisted fixpoint (empty dirty set), so
     it skips the propagation stage; budgeted configurations re-solve
     from scratch instead, since their degradation state is not
     persisted. *)

  type manifest = {
    m_config : Config.t;
    m_main : string;
    m_procs : (string * string * string) list;
        (** (name, strict hash, semantic hash) in program order *)
    m_vals : (string * A.L.t Prog.Param_map.t) list;
  }

  let export (s : session) : string * (string * string) list =
    let blobs =
      List.map
        (fun (p : Prog.proc) ->
          (Hashtbl.find s.s_strict p.pname, Marshal.to_string p []))
        s.s_prog.procs
    in
    let manifest =
      {
        m_config = s.s_config;
        m_main = s.s_prog.main;
        m_procs =
          List.map
            (fun (p : Prog.proc) ->
              ( p.pname,
                Hashtbl.find s.s_strict p.pname,
                Hashtbl.find s.s_sem p.pname ))
            s.s_prog.procs;
        m_vals =
          Hashtbl.fold
            (fun name m acc -> (name, m) :: acc)
            s.s_result.Driver.solution.Solver.vals []
          |> List.sort compare;
      }
    in
    (Marshal.to_string manifest [], blobs)

  let import ~(manifest : string) ~(lookup : string -> string option) :
      session option =
    match (Marshal.from_string manifest 0 : manifest) with
    | exception _ -> None
    | m when Config.analysis_name m.m_config.Config.analysis <> A.name ->
      (* a manifest persisted by a different analysis: [m_vals] would be
         read at the wrong lattice type — refuse before touching it *)
      None
    | m -> (
      let procs =
        List.map
          (fun (_, strict_hash, _) ->
            match lookup strict_hash with
            | None -> None
            | Some blob -> (
              match (Marshal.from_string blob 0 : Prog.proc) with
              | exception _ -> None
              | p -> Some p))
          m.m_procs
      in
      if List.exists Option.is_none procs then None
      else
        match
          let prog =
            { Prog.procs = List.map Option.get procs; main = m.m_main }
          in
          let artifacts = Driver.prepare prog in
          let prev_vals : (string, A.L.t Prog.Param_map.t) Hashtbl.t =
            Hashtbl.create 16
          in
          List.iter (fun (n, vm) -> Hashtbl.replace prev_vals n vm) m.m_vals;
          let budgeted =
            m.m_config.Config.max_steps <> None
            || m.m_config.Config.deadline_ms <> None
          in
          let t =
            if budgeted || not m.m_config.Config.interprocedural then
              D.solve m.m_config artifacts
            else
              (* the persisted fixpoint with an empty dirty set: the solver
                 verifies nothing is pending and returns it unchanged *)
              D.solve_seeded m.m_config artifacts ~prev_vals
                ~dirty:(fun _ -> false)
          in
          let strict, sem = hash_tables prog in
          session_of ~config:m.m_config ~prog ~artifacts ~strict ~sem ~t
        with
        | s -> Some s
        | exception _ -> None)
end

include Make (Const_analysis)
