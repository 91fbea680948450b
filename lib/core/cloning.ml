(** Procedure cloning guided by interprocedural constants.

    The paper cites procedure cloning (Cooper–Hall–Kennedy; Metzger–Stroud)
    as the natural consumer of CONSTANTS sets: when different call sites
    pass *different* constants to the same procedure, the meet destroys
    them all; duplicating the procedure per constant signature recovers
    them.  Metzger & Stroud report that goal-directed cloning
    "substantially increases the number of interprocedural constants
    available" — the cloning example and the suite's cloning-ablation
    test reproduce that effect.

    The transformation is source-level-faithful: clones are real procedures
    with fresh statement/expression ids, and call sites are retargeted, so
    the result can be re-analyzed, printed and interpreted like any other
    program.  Only [call] statements are retargeted (function calls inside
    expressions are left alone), which keeps the rewrite simple and covers
    the experiments. *)

open Ipcp_frontend
open Ipcp_analysis

(* ------------------------------------------------------------------ *)
(* Deep copy of a procedure body with fresh statement/expression ids.   *)

type refresher = { mutable next : int }

let fresh r =
  let id = r.next in
  r.next <- id + 1;
  id

let rec refresh_expr r (e : Prog.expr) : Prog.expr =
  let edesc =
    match e.edesc with
    | (Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ | Prog.Evar _)
      as d ->
      d
    | Prog.Earr (v, idx) -> Prog.Earr (v, List.map (refresh_expr r) idx)
    | Prog.Ecall (f, args) -> Prog.Ecall (f, List.map (refresh_expr r) args)
    | Prog.Eintr (intr, args) ->
      Prog.Eintr (intr, List.map (refresh_expr r) args)
    | Prog.Eun (op, a) -> Prog.Eun (op, refresh_expr r a)
    | Prog.Ebin (op, a, b) -> Prog.Ebin (op, refresh_expr r a, refresh_expr r b)
  in
  { e with eid = fresh r; edesc }

let refresh_lhs r = function
  | Prog.Lvar v -> Prog.Lvar v
  | Prog.Larr (v, idx) -> Prog.Larr (v, List.map (refresh_expr r) idx)

let rec refresh_stmt r (s : Prog.stmt) : Prog.stmt =
  let sdesc =
    match s.sdesc with
    | Prog.Sassign (lhs, e) -> Prog.Sassign (refresh_lhs r lhs, refresh_expr r e)
    | Prog.Scall (f, args) -> Prog.Scall (f, List.map (refresh_expr r) args)
    | Prog.Sif (arms, els) ->
      Prog.Sif
        ( List.map (fun (c, b) -> (refresh_expr r c, List.map (refresh_stmt r) b)) arms,
          List.map (refresh_stmt r) els )
    | Prog.Sdo (v, lo, hi, step, body) ->
      Prog.Sdo
        ( v,
          refresh_expr r lo,
          refresh_expr r hi,
          Option.map (refresh_expr r) step,
          List.map (refresh_stmt r) body )
    | Prog.Sdowhile (c, body) ->
      Prog.Sdowhile (refresh_expr r c, List.map (refresh_stmt r) body)
    | Prog.Sprint es -> Prog.Sprint (List.map (refresh_expr r) es)
    | Prog.Sread ls -> Prog.Sread (List.map (refresh_lhs r) ls)
    | (Prog.Sgoto _ | Prog.Scontinue | Prog.Sreturn | Prog.Sstop) as d -> d
  in
  { s with sid = fresh r; sdesc }

let refresh_proc r name (p : Prog.proc) : Prog.proc =
  { p with pname = name; pbody = List.map (refresh_stmt r) p.pbody }

(* ------------------------------------------------------------------ *)
(* Constant signatures of call sites.                                   *)

(* The constant each argument position carries at one call site, under the
   caller's solved VAL map. *)
let site_signature (t : Driver.t) (sjf : Jump_function.site_jf) : int option array =
  let caller_vals =
    Hashtbl.find_opt t.solution.Solver.vals sjf.sf_caller
    |> Option.value ~default:Prog.Param_map.empty
  in
  Array.map
    (fun jf ->
      match Solver.eval_jf t.solution.Solver.stats caller_vals jf with
      | Const_lattice.Const c -> Some c
      | Const_lattice.Top | Const_lattice.Bottom -> None)
    sjf.sf_formals

let has_constant sig_ = Array.exists Option.is_some sig_

(* ------------------------------------------------------------------ *)
(* The transformation.                                                  *)

type result = {
  cloned : Prog.t;
  clones_made : int;
  renamings : (int * string) list;  (** call-site id → new callee name *)
}

(** Clone procedures whose call sites disagree on constant arguments.
    [max_clones_per_proc] caps the number of variants per procedure
    (Metzger–Stroud use a similar goal-directed cap). *)
let clone ?(config = Config.polynomial_with_mod) ?(max_clones_per_proc = 4)
    ?artifacts (prog : Prog.t) : result =
  let artifacts =
    match artifacts with Some a -> a | None -> Driver.prepare prog
  in
  let t = Driver.solve config artifacts in
  let r = { next = Ipcp_ir.Lower.expr_id_ceiling prog } in
  (* group this callee's sites by signature *)
  let by_callee : (string, (Jump_function.site_jf * int option array) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (sjf : Jump_function.site_jf) ->
      let s = site_signature t sjf in
      let old = Hashtbl.find_opt by_callee sjf.sf_callee |> Option.value ~default:[] in
      Hashtbl.replace by_callee sjf.sf_callee ((sjf, s) :: old))
    t.site_jfs;
  let renamings = ref [] in
  let new_procs = ref [] in
  let clones_made = ref 0 in
  Hashtbl.iter
    (fun callee sites ->
      match Driver.find_proc artifacts callee with
      | None -> ()
      | Some proc when proc.pkind = Prog.Pmain -> ()
      | Some proc ->
        (* distinct signatures that actually carry constants *)
        let groups : (int option array * Jump_function.site_jf list) list =
          List.fold_left
            (fun groups (sjf, s) ->
              match List.partition (fun (s', _) -> s' = s) groups with
              | [ (_, members) ], rest -> (s, sjf :: members) :: rest
              | _, rest -> (s, [ sjf ]) :: rest)
            [] sites
        in
        let const_groups = List.filter (fun (s, _) -> has_constant s) groups in
        (* cloning pays when at least two groups disagree *)
        if List.length const_groups >= 2 then begin
          let chosen =
            List.filteri (fun i _ -> i < max_clones_per_proc) const_groups
          in
          List.iteri
            (fun i (_, members) ->
              (* the first group keeps the original procedure *)
              if i > 0 then begin
                let clone_name = Printf.sprintf "%s__c%d" callee i in
                new_procs := refresh_proc r clone_name proc :: !new_procs;
                incr clones_made;
                List.iter
                  (fun (sjf : Jump_function.site_jf) ->
                    renamings := (sjf.sf_site, clone_name) :: !renamings)
                  members
              end)
            chosen
        end)
    by_callee;
  (* retarget the chosen call statements *)
  let rename_tbl = Hashtbl.create 16 in
  List.iter (fun (site, name) -> Hashtbl.replace rename_tbl site name) !renamings;
  let rec rewrite_stmt (s : Prog.stmt) : Prog.stmt =
    match s.sdesc with
    | Prog.Scall (f, args) -> (
      match Hashtbl.find_opt rename_tbl s.sid with
      | Some f' -> { s with sdesc = Prog.Scall (f', args) }
      | None -> { s with sdesc = Prog.Scall (f, args) })
    | Prog.Sif (arms, els) ->
      {
        s with
        sdesc =
          Prog.Sif
            ( List.map (fun (c, b) -> (c, List.map rewrite_stmt b)) arms,
              List.map rewrite_stmt els );
      }
    | Prog.Sdo (v, lo, hi, step, body) ->
      { s with sdesc = Prog.Sdo (v, lo, hi, step, List.map rewrite_stmt body) }
    | Prog.Sdowhile (c, body) ->
      { s with sdesc = Prog.Sdowhile (c, List.map rewrite_stmt body) }
    | Prog.Sassign _ | Prog.Sprint _ | Prog.Sread _ | Prog.Sgoto _
    | Prog.Scontinue | Prog.Sreturn | Prog.Sstop ->
      s
  in
  let procs =
    List.map
      (fun (p : Prog.proc) -> { p with pbody = List.map rewrite_stmt p.pbody })
      prog.procs
    @ List.rev !new_procs
  in
  { cloned = { prog with procs }; clones_made = !clones_made; renamings = !renamings }

(** Iterate cloning to a fixpoint (new constants can expose new cloning
    opportunities), bounded by [rounds]. *)
let clone_to_fixpoint ?(config = Config.polynomial_with_mod) ?(rounds = 3)
    (prog : Prog.t) : Prog.t * int =
  let rec go prog made n =
    if n >= rounds then (prog, made)
    else
      let r = clone ~config prog in
      if r.clones_made = 0 then (prog, made)
      else go r.cloned (made + r.clones_made) (n + 1)
  in
  go prog 0 0
