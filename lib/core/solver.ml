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

    The values are {!Copy_lattice}'s, whatever the analysis: constant
    propagation is copy propagation whose entry seeds hold no copy fact
    ({!global_seed}), and on copy-free values every rule below is
    Figure 1's. *)

open Ipcp_frontend
open Ipcp_analysis

type stats = {
  mutable iterations : int;  (** procedures popped from the worklist *)
  mutable jf_evaluations : int;
  mutable meets : int;
  mutable widened : int;  (** entries widened to ⊥ on budget exhaustion *)
}

let fresh_stats () = { iterations = 0; jf_evaluations = 0; meets = 0; widened = 0 }

type val_map = Copy_lattice.t Prog.Param_map.t

type result = {
  vals : (string, val_map) Hashtbl.t;
  stats : stats;
  degraded : Ipcp_support.Budget.reason list;
      (** non-empty when the budget ran out and pending work was widened
          to ⊥ — the result is sound but less precise *)
}

(* On entry to main an initialized global holds its DATA constant.  An
   uninitialized one holds unknown input: ⊥ for constant propagation,
   and for copy propagation a perfect copy of its own load-time value —
   the one place copy facts are born. *)
let global_seed (analysis : Config.analysis) ~(data : int option)
    ~(key : string) : Copy_lattice.t =
  match (data, analysis) with
  | Some c, _ -> Copy_lattice.Const c
  | None, `Const -> Copy_lattice.Bottom
  | None, `Copy -> Copy_lattice.Copy key

let lookup (r : result) proc param : Copy_lattice.t =
  match Hashtbl.find_opt r.vals proc with
  | None -> Copy_lattice.Bottom
  | Some m ->
    Prog.Param_map.find_opt param m
    |> Option.value ~default:Copy_lattice.Top

(** Constants discovered for one procedure: parameters whose VAL pins
    down an integer — the CONSTANTS(p) set. *)
let constants_of (r : result) proc : (Prog.param * int) list =
  match Hashtbl.find_opt r.vals proc with
  | None -> []
  | Some m ->
    Prog.Param_map.fold
      (fun param v acc ->
        match Copy_lattice.const_value v with
        | Some c -> (param, c) :: acc
        | None -> acc)
      m []
    |> List.rev

(* The transfer function: a jump function evaluated under a caller's
   VAL map.  No support is ⊥.  A pass-through (the identity on one leaf)
   passes every fact on verbatim, copies included.  Otherwise any ⊥
   input forces ⊥, then any copy input forces ⊥ (a compound expression
   over a load-time value is no copy, and cannot fold), then any ⊤
   input forces ⊤ (optimistic), and an all-constant support folds
   arithmetically, a trap (division by zero, huge exponent) reading as
   ⊥.  Copy facts are checked where ⊥ is, which is what makes
   {!Copy_lattice.project} commute with evaluation. *)
let eval_jf (stats : stats) (caller_vals : val_map) (jf : Symbolic.t) :
    Copy_lattice.t =
  stats.jf_evaluations <- stats.jf_evaluations + 1;
  let env l =
    let param =
      match l with
      | Symbolic.Lformal i -> Prog.Pformal i
      | Symbolic.Lglobal k -> Prog.Pglob k
    in
    Prog.Param_map.find_opt param caller_vals
    |> Option.value ~default:Copy_lattice.Top
  in
  match Symbolic.support jf with
  | None -> Copy_lattice.Bottom
  | Some leaves -> (
    match Symbolic.as_leaf jf with
    | Some l -> env l
    | None ->
      let values = List.map (fun l -> (l, env l)) leaves in
      if List.exists (fun (_, v) -> v = Copy_lattice.Bottom) values then
        Copy_lattice.Bottom
      else if List.exists (fun (_, v) -> Copy_lattice.is_copy v) values then
        Copy_lattice.Bottom
      else if List.exists (fun (_, v) -> v = Copy_lattice.Top) values then
        Copy_lattice.Top
      else
        let env l =
          match List.assoc_opt l values with
          | Some (Copy_lattice.Const c) -> Some c
          | Some _ | None -> None
        in
        Copy_lattice.of_option (Symbolic.eval ~env jf))

(* The fresh (pre-iteration) VAL map of one procedure: ⊤ everywhere
   except the main program, whose entries seed pessimistically — formals
   at ⊥ and globals at {!global_seed}. *)
let fresh_map ~analysis (prog : Prog.t)
    (global_data : (string * int option) list) (p : Prog.proc) : val_map =
  let is_main = p.pname = prog.main in
  let initial = if is_main then Copy_lattice.Bottom else Copy_lattice.Top in
  let m =
    List.fold_left
      (fun m (v : Prog.var) ->
        match v.vkind with
        | Prog.Kformal i -> Prog.Param_map.add (Prog.Pformal i) initial m
        | _ -> m)
      Prog.Param_map.empty p.pformals
  in
  List.fold_left
    (fun m (key, data) ->
      let v = if is_main then global_seed analysis ~data ~key else initial in
      Prog.Param_map.add (Prog.Pglob key) v m)
    m global_data

(** Solve.  [site_jfs] are the forward jump functions of every call site;
    [global_data] the key of every common global in the program with its
    load-time [data] value, which seeds main's entry under [analysis]
    ({!global_seed}).  The
    worklist starts with every procedure, callers first; the
    meet-semilattice iteration converges to the same fixpoint whatever
    the order procedures are processed in.  When [budget] runs out
    mid-drain, every procedure transitively reachable from a
    still-pending caller is widened to ⊥: those are exactly the maps
    that unprocessed edges could still lower, so the answer stays a
    sound (conservative) approximation of the fixed point. *)
let run ?budget ~analysis (cg : Callgraph.t)
    ~(site_jfs : Jump_function.site_jf list)
    ~(global_data : (string * int option) list) : result =
  let prog = cg.Callgraph.prog in
  let vals : (string, val_map) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p : Prog.proc) ->
      Hashtbl.replace vals p.pname (fresh_map ~analysis prog global_data p))
    prog.procs;
  let work = Ipcp_support.Worklist.of_list (Callgraph.top_down cg) in
  let budget =
    match budget with
    | Some b -> b
    | None -> Ipcp_support.Budget.create ()
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
            Prog.Param_map.find_opt param m
            |> Option.value ~default:Copy_lattice.Top
          in
          let nv = Copy_lattice.meet old incoming in
          if not (Copy_lattice.equal old nv) then begin
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
                  if not (Copy_lattice.equal v Copy_lattice.Bottom) then
                    stats.widened <- stats.widened + 1;
                  Copy_lattice.Bottom)
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

let pp_result prog ppf (r : result) =
  let procs = Prog.proc_table prog and param_name = Prog.param_name prog in
  Hashtbl.iter
    (fun name m ->
      match Hashtbl.find_opt procs name with
      | None -> ()
      | Some proc ->
        Fmt.pf ppf "%s:@." name;
        Prog.Param_map.iter
          (fun param v ->
            Fmt.pf ppf "  %s = %a@." (param_name proc param) Copy_lattice.pp v)
          m)
    r.vals
