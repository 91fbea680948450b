(** Interprocedural propagation of VAL sets over the call graph (paper §2,
    §4.1).

    Every procedure gets a VAL map from its interprocedural parameters
    (positional formals and common globals) to lattice values.  All entries
    start at ⊤ except the main program's, which start at ⊥ (nothing is known
    about initial memory, and main has no formals).  A worklist iteration
    evaluates forward jump functions along call-graph edges and meets the
    results into callee VAL maps until stable; the shallow lattice bounds
    each entry to at most two lowerings, so termination is immediate.

    A parameter that still holds ⊤ when the solver stops belongs to a
    procedure that is never called; such parameters are not reported as
    constants.

    The machinery is generic over the analysis ({!Make}); the lattice
    element, transfer function and entry seeding come from an
    {!Ipcp_analysis.Analysis_sig.S}.  The toplevel values are the
    constant-propagation instantiation, preserving the historical API. *)

open Ipcp_frontend
open Ipcp_analysis

type stats = {
  mutable iterations : int;  (** procedures popped from the worklist *)
  mutable jf_evaluations : int;
  mutable meets : int;
  mutable widened : int;  (** entries widened to ⊥ on budget exhaustion *)
}

let fresh_stats () = { iterations = 0; jf_evaluations = 0; meets = 0; widened = 0 }

(* The result record is declared once, parametric in the lattice element,
   so every [Make] instantiation shares the same nominal type: analysis-
   independent consumers (artifact plumbing, the incremental layer) stay
   polymorphic instead of functorized. *)
type 'elt generic_result = {
  vals : (string, 'elt Prog.Param_map.t) Hashtbl.t;
  stats : stats;
  degraded : Ipcp_support.Budget.reason list;
      (** non-empty when the budget ran out and pending work was widened
          to ⊥ — the result is sound but less precise *)
}

type val_map = Const_lattice.t Prog.Param_map.t
type result = Const_lattice.t generic_result

module Make (A : Analysis_sig.S) = struct
  type elt = A.L.t

  let lookup (r : elt generic_result) proc param : elt =
    match Hashtbl.find_opt r.vals proc with
    | None -> A.L.bottom
    | Some m -> Prog.Param_map.find_opt param m |> Option.value ~default:A.L.top

  (** Constants discovered for one procedure: parameters whose VAL pins
      down an integer — the CONSTANTS(p) set. *)
  let constants_of (r : elt generic_result) proc : (Prog.param * int) list =
    match Hashtbl.find_opt r.vals proc with
    | None -> []
    | Some m ->
      Prog.Param_map.fold
        (fun param v acc ->
          match A.L.const_value v with
          | Some c -> (param, c) :: acc
          | None -> acc)
        m []
      |> List.rev

  (* Evaluate a jump function under a caller's VAL map.  Result is ⊤ while
     any needed input is still ⊤ (optimistic), ⊥ if any input is ⊥ or
     evaluation fails, otherwise the analysis's folding of the inputs. *)
  let eval_jf (stats : stats) (caller_vals : elt Prog.Param_map.t)
      (jf : Symbolic.t) : elt =
    stats.jf_evaluations <- stats.jf_evaluations + 1;
    A.eval_jf
      ~env:(fun l ->
        let param =
          match l with
          | Symbolic.Lformal i -> Prog.Pformal i
          | Symbolic.Lglobal k -> Prog.Pglob k
        in
        Prog.Param_map.find_opt param caller_vals
        |> Option.value ~default:A.L.top)
      jf

  (* The fresh (pre-iteration) VAL map of one procedure: ⊤ everywhere
     except the main program, whose entries seed pessimistically — formals
     at ⊥ and globals at the analysis's entry fact (load-time DATA
     constants for constant propagation, self-copies for copy
     propagation). *)
  let fresh_map (prog : Prog.t) (global_keys : string list) (p : Prog.proc) :
      elt Prog.Param_map.t =
    let is_main = p.pname = prog.main in
    let initial = if is_main then A.L.bottom else A.L.top in
    let m =
      List.fold_left
        (fun m (v : Prog.var) ->
          match v.vkind with
          | Prog.Kformal i -> Prog.Param_map.add (Prog.Pformal i) initial m
          | _ -> m)
        Prog.Param_map.empty p.pformals
    in
    List.fold_left
      (fun m key ->
        (* on entry to main, a global still holds its load-time value;
           what that is worth is the analysis's call *)
        let v =
          if is_main then
            A.global_seed ~data:(Prog.data_value_of_global prog key) ~key
          else initial
        in
        Prog.Param_map.add (Prog.Pglob key) v m)
      m global_keys

  (** Solve.  [site_jfs] are the forward jump functions of every call site;
      [global_keys] the keys of every common global in the program.  The
      worklist starts with every procedure, callers first; the
      meet-semilattice iteration converges to the same fixpoint whatever
      the order procedures are processed in.  When [budget] runs out
      mid-drain, every procedure transitively reachable from a
      still-pending caller is widened to ⊥: those are exactly the maps
      that unprocessed edges could still lower, so the answer stays a
      sound (conservative) approximation of the fixed point. *)
  let run ?budget (cg : Callgraph.t) ~(site_jfs : Jump_function.site_jf list)
      ~(global_keys : string list) : elt generic_result =
    let prog = cg.Callgraph.prog in
    let vals : (string, elt Prog.Param_map.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p : Prog.proc) ->
        Hashtbl.replace vals p.pname (fresh_map prog global_keys p))
      prog.procs;
    let work = Ipcp_support.Worklist.of_list (Callgraph.top_down cg) in
    let budget =
      match budget with
      | Some b -> b
      | None -> Ipcp_support.Budget.create ~label:"solver" ()
    in
    let stats = fresh_stats () in
    (* index site jump functions by caller *)
    let by_caller : (string, Jump_function.site_jf list) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun (s : Jump_function.site_jf) ->
        let existing =
          Hashtbl.find_opt by_caller s.sf_caller |> Option.value ~default:[]
        in
        Hashtbl.replace by_caller s.sf_caller (s :: existing))
      site_jfs;
    let process caller =
      stats.iterations <- stats.iterations + 1;
      let caller_vals =
        Hashtbl.find_opt vals caller |> Option.value ~default:Prog.Param_map.empty
      in
      (* A procedure that is itself still entirely ⊤ has not been shown to
         execute… but jump-function inputs at ⊤ already keep outputs ⊤, so
         no special case is needed. *)
      List.iter
        (fun (s : Jump_function.site_jf) ->
          let callee = s.sf_callee in
          let callee_vals =
            Hashtbl.find_opt vals callee
            |> Option.value ~default:Prog.Param_map.empty
          in
          let changed = ref false in
          let meet_param m param incoming =
            stats.meets <- stats.meets + 1;
            let old =
              Prog.Param_map.find_opt param m |> Option.value ~default:A.L.top
            in
            let nv = A.L.meet old incoming in
            if not (A.L.equal old nv) then begin
              changed := true;
              Prog.Param_map.add param nv m
            end
            else m
          in
          let m = ref callee_vals in
          Array.iteri
            (fun pos jf ->
              let incoming = eval_jf stats caller_vals jf in
              m := meet_param !m (Prog.Pformal pos) incoming)
            s.sf_formals;
          List.iter
            (fun (key, jf) ->
              let incoming = eval_jf stats caller_vals jf in
              m := meet_param !m (Prog.Pglob key) incoming)
            s.sf_globals;
          if !changed then begin
            Hashtbl.replace vals callee !m;
            Ipcp_support.Worklist.push work callee
          end)
        (Hashtbl.find_opt by_caller caller |> Option.value ~default:[])
    in
    let rec drain () =
      if Ipcp_support.Budget.tick budget then
        match Ipcp_support.Worklist.pop work with
        | None -> ()
        | Some caller ->
          process caller;
          drain ()
    in
    drain ();
    (* Budget exhausted mid-drain: widen to ⊥ every map an unprocessed edge
       could still lower — the transitive callee closure of the pending
       callers (which includes the pending callers themselves). *)
    let degraded =
      match Ipcp_support.Budget.exhausted budget with
      | None -> []
      | Some reason ->
        let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
        let rec visit name =
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            List.iter
              (fun (e : Callgraph.edge) -> visit e.e_callee)
              (Callgraph.callees_of cg name)
          end
        in
        List.iter visit (Ipcp_support.Worklist.elements work);
        Hashtbl.iter
          (fun name () ->
            match Hashtbl.find_opt vals name with
            | None -> ()
            | Some m ->
              let m' =
                Prog.Param_map.map
                  (fun v ->
                    if not (A.L.equal v A.L.bottom) then
                      stats.widened <- stats.widened + 1;
                    A.L.bottom)
                  m
              in
              Hashtbl.replace vals name m')
          seen;
        [ reason ]
    in
    if Ipcp_telemetry.Telemetry.enabled () then begin
      let open Ipcp_telemetry in
      let w = Ipcp_support.Worklist.stats work in
      Telemetry.add "solver.iterations" stats.iterations;
      Telemetry.add "solver.jf_evaluations" stats.jf_evaluations;
      Telemetry.add "solver.meets" stats.meets;
      Telemetry.add "solver.worklist.pushes" w.pushes;
      Telemetry.add "solver.worklist.pops" w.pops;
      Telemetry.add "solver.worklist.dedup_skips" w.dedup_skips;
      Telemetry.add "solver.widened" stats.widened;
      Telemetry.add "solver.degraded" (List.length degraded);
      Telemetry.observe "solver.worklist.max_length" w.max_length
    end;
    { vals; stats; degraded }

  let pp_result prog ppf (r : elt generic_result) =
    let procs = Prog.proc_table prog and param_name = Prog.param_name prog in
    Hashtbl.iter
      (fun name m ->
        match Hashtbl.find_opt procs name with
        | None -> ()
        | Some proc ->
          Fmt.pf ppf "%s:@." name;
          Prog.Param_map.iter
            (fun param v ->
              Fmt.pf ppf "  %s = %a@." (param_name proc param)
                A.L.pp v)
            m)
      r.vals
end

include Make (Const_analysis)
