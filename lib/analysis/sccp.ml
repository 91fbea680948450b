(** Sparse conditional constant propagation (Wegman–Zadeck) over the SSA
    tables.

    SCCP plays two roles in the reproduction:
    - seeded with the CONSTANTS(p) facts discovered by interprocedural
      propagation, it justifies the *textual substitutions* that the paper
      counts (the Metzger–Stroud metric);
    - seeded with nothing, it is the paper's "purely intraprocedural
      constant propagation" baseline (Table 3, last column).

    Tracked values are integers and booleans (booleans make constant
    branches foldable, which dead-code elimination consumes); reals are ⊥
    throughout, per the paper's integers-only limitation. *)

open Ipcp_frontend
open Ipcp_ir

type value = Vtop | Vint of int | Vbool of bool | Vbot

let pp_value ppf = function
  | Vtop -> Fmt.string ppf "⊤"
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.string ppf (if b then "true" else "false")
  | Vbot -> Fmt.string ppf "⊥"

let equal_value a b =
  match (a, b) with
  | Vtop, Vtop | Vbot, Vbot -> true
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | (Vtop | Vint _ | Vbool _ | Vbot), _ -> false

let meet a b =
  match (a, b) with
  | Vtop, x | x, Vtop -> x
  | Vbot, _ | _, Vbot -> Vbot
  | Vint x, Vint y -> if x = y then a else Vbot
  | Vbool x, Vbool y -> if x = y then a else Vbot
  | (Vint _ | Vbool _), _ -> Vbot

type result = {
  values : value array;  (** lattice value per SSA name *)
  executable : bool array;  (** per block *)
  expr_consts : (int, int) Hashtbl.t;
      (** source [Evar] expression id → its constant value at that use *)
  cond_consts : (int, bool) Hashtbl.t;
      (** branch-condition expression id → known truth value *)
  degraded : Ipcp_support.Budget.reason list;
      (** non-empty when the budget ran out; the result then carries no
          facts at all (every name ⊥, every block live) — trivially
          sound *)
}

(* Consumers of an SSA name, for the SSA worklist. *)
type consumer = Cphi of int  (** block *) | Cinstr of int * int | Cterm of int

let run ?budget ?(oracle : Ssa_value.oracle option)
    ~(entry_env : Prog.var -> int option) (ssa : Ssa.t) : result =
  let budget =
    match budget with
    | Some b -> b
    | None -> Ipcp_support.Budget.create ~label:"sccp" ()
  in
  let cfg = ssa.Ssa.cfg in
  let nblocks = Cfg.num_blocks cfg in
  let nnames = Ssa.num_names ssa in
  let values = Array.make nnames Vtop in
  let executable = Array.make nblocks false in
  (* One int per CFG edge, so the flow worklist and the executable-edge
     set index arrays instead of hashing (src, dst) pairs: block [b]'s
     out-edges are [edge_base.(b)] and, for a two-way branch,
     [edge_base.(b) + 1].  The entry pseudo-edge gets the last id, apart
     from any real edge into the entry block. *)
  let edge_base = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    edge_base.(b + 1) <- edge_base.(b) + List.length (Cfg.successors cfg b)
  done;
  let entry_edge = edge_base.(nblocks) in
  let edge_dst = Array.make (entry_edge + 1) cfg.entry in
  for b = 0 to nblocks - 1 do
    List.iteri (fun k dst -> edge_dst.(edge_base.(b) + k) <- dst) (Cfg.successors cfg b)
  done;
  let edge src dst =
    if edge_dst.(edge_base.(src)) = dst then edge_base.(src)
    else edge_base.(src) + 1
  in
  let edge_exec = Array.make (entry_edge + 1) false in
  (* use lists *)
  let uses : consumer list array = Array.make nnames [] in
  let add_use n c = uses.(n) <- c :: uses.(n) in
  Array.iteri
    (fun b phis ->
      List.iter
        (fun (p : Ssa.phi) ->
          List.iter (fun (_, arg) -> add_use arg (Cphi b)) p.p_args)
        phis;
      Array.iteri
        (fun i _ ->
          List.iter (fun (_, n) -> add_use n (Cinstr (b, i))) (Ssa.info_at ssa b i).ii_uses)
        ssa.Ssa.instrs.(b);
      List.iter (fun (_, n) -> add_use n (Cterm b)) ssa.Ssa.term_uses.(b))
    ssa.Ssa.phis;
  let module W = Ipcp_support.Worklist.Dense in
  let flow_work = W.create (entry_edge + 1) in
  let ssa_work = W.create nnames in
  let set_value n v =
    if not (equal_value values.(n) v) then begin
      values.(n) <- v;
      W.push ssa_work n
    end
  in
  (* lower only: meet with current to guarantee monotonicity *)
  let lower_value n v = set_value n (meet values.(n) v) in
  (* ---- seeding: entry versions ---- *)
  List.iter
    (fun (_, n) ->
      let { Ssa.d_var; _ } = Ssa.def ssa n in
      let v =
        if Prog.is_array d_var then Vbot
        else
          match d_var.vkind with
          | Prog.Kformal _ | Prog.Kglobal _ -> (
            if d_var.vty = Prog.Tint then
              match entry_env d_var with Some c -> Vint c | None -> Vbot
            else Vbot)
          | Prog.Klocal | Prog.Kresult -> Vbot (* uninitialized on entry *)
      in
      values.(n) <- v)
    ssa.Ssa.entry_names;
  (* ---- expression evaluation over the lattice ---- *)
  let rec eval_expr resolve (e : Prog.expr) : value =
    match e.edesc with
    | Prog.Cint n -> Vint n
    | Prog.Cbool b -> Vbool b
    | Prog.Creal _ | Prog.Cstr _ -> Vbot
    | Prog.Evar v ->
      if Prog.is_array v then Vbot
      else (
        match resolve v.vname with
        | Some n ->
          let value = values.(n) in
          (* type guard: only track matching kinds *)
          (match (v.vty, value) with
          | Prog.Tint, (Vint _ | Vtop | Vbot) -> value
          | Prog.Tlogical, (Vbool _ | Vtop | Vbot) -> value
          | Prog.Treal, _ -> Vbot
          | _ -> Vbot)
        | None -> Vbot)
    | Prog.Earr _ -> Vbot
    | Prog.Ecall _ -> Vbot (* hoisted before SSA *)
    | Prog.Eintr (intr, args) -> (
      let values = List.map (eval_expr resolve) args in
      if List.exists (fun v -> v = Vbot || match v with Vbool _ -> true | _ -> false) values
      then Vbot
      else if List.exists (fun v -> v = Vtop) values then Vtop
      else
        let ints =
          List.filter_map (function Vint n -> Some n | _ -> None) values
        in
        match Symbolic.fold_intrinsic intr ints with
        | Some v -> Vint v
        | None -> Vbot)
    | Prog.Eun (Ast.Neg, a) -> (
      match eval_expr resolve a with
      | Vint n -> Vint (-n)
      | Vtop -> Vtop
      | Vbool _ | Vbot -> Vbot)
    | Prog.Eun (Ast.Not, a) -> (
      match eval_expr resolve a with
      | Vbool b -> Vbool (not b)
      | Vtop -> Vtop
      | Vint _ | Vbot -> Vbot)
    | Prog.Ebin (op, a, b) -> eval_binop resolve op a b e.ety
  and eval_binop resolve op a b ety =
    let va = eval_expr resolve a in
    let vb = eval_expr resolve b in
    match (va, vb) with
    | Vbot, _ | _, Vbot -> Vbot
    | Vtop, _ | _, Vtop ->
      (* stay optimistic until both operands settle *)
      Vtop
    | Vint x, Vint y -> (
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
        if ety <> Prog.Tint then Vbot
        else begin
          match op with
          | Ast.Add -> Vint (x + y)
          | Ast.Sub -> Vint (x - y)
          | Ast.Mul -> Vint (x * y)
          | Ast.Div -> if y = 0 then Vbot else Vint (x / y)
          | Ast.Pow -> (
            match Symbolic.int_pow x y with Some v -> Vint v | None -> Vbot)
          | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And
          | Ast.Or ->
            Vbot
        end
      | Ast.Lt -> Vbool (x < y)
      | Ast.Le -> Vbool (x <= y)
      | Ast.Gt -> Vbool (x > y)
      | Ast.Ge -> Vbool (x >= y)
      | Ast.Eq -> Vbool (x = y)
      | Ast.Ne -> Vbool (x <> y)
      | Ast.And | Ast.Or -> Vbot)
    | Vbool x, Vbool y -> (
      match op with
      | Ast.And -> Vbool (x && y)
      | Ast.Or -> Vbool (x || y)
      | _ -> Vbot)
    | (Vint _ | Vbool _), _ -> Vbot
  in
  let resolve_in b i name = Ssa.use_at ssa b i name in
  (* ---- transfer functions ---- *)
  let visit_phi b (p : Ssa.phi) =
    let incoming =
      List.filter_map
        (fun (pred, arg) ->
          if edge_exec.(edge pred b) then Some values.(arg) else None)
        p.p_args
    in
    match incoming with
    | [] -> () (* no executable incoming edge yet *)
    | v :: rest -> lower_value p.p_dest (List.fold_left meet v rest)
  in
  (* Each call-defined name's evaluator, made on the name's first visit:
     its call target and the oracle applied to it, which looks the
     callee up.  A name is defined by one call, and its block may be
     visited many times. *)
  let call_evals = Array.make nnames None in
  let call_eval oracle c n d_var =
    match call_evals.(n) with
    | Some eval -> eval
    | None ->
      let eval = Option.map (oracle c) (Ssa_value.call_target c d_var) in
      call_evals.(n) <- Some eval;
      eval
  in
  let call_def_value (c : Cfg.call) b i n =
    let { Ssa.d_var; _ } = Ssa.def ssa n in
    if d_var.vty <> Prog.Tint then Vbot
    else
      match oracle with
      | None -> Vbot
      | Some oracle -> (
        match call_eval oracle c n d_var with
        | None -> Vbot
        | Some eval -> (
          let lookup = function
            | Symbolic.Lformal pos -> (
              match List.nth_opt c.c_args pos with
              | None -> None
              | Some a -> (
                match eval_expr (resolve_in b i) a with
                | Vint v -> Some v
                | Vtop | Vbool _ | Vbot -> None))
            | Symbolic.Lglobal key ->
              let info = Ssa.info_at ssa b i in
              List.find_map
                (fun (_, n) ->
                  let v = Ssa.var_of ssa n in
                  match v.Prog.vkind with
                  | Prog.Kglobal g when Prog.global_key g = key -> (
                    match values.(n) with
                    | Vint cst -> Some cst
                    | Vtop | Vbool _ | Vbot -> None)
                  | _ -> None)
                info.Ssa.ii_uses
          in
          match eval lookup with
          | Some cst -> Vint cst
          | None -> Vbot))
  in
  let visit_instr b i =
    let info = Ssa.info_at ssa b i in
    match Ssa.instr_at ssa b i with
    | Cfg.Iassign (v, e) ->
      let value = eval_expr (resolve_in b i) e in
      let value =
        match (v.vty, value) with
        | Prog.Tint, (Vint _ | Vtop) -> value
        | Prog.Tlogical, (Vbool _ | Vtop) -> value
        | _ -> Vbot
      in
      List.iter (fun (_, n) -> lower_value n value) info.ii_defs
    | Cfg.Icall c ->
      List.iter (fun (_, n) -> lower_value n (call_def_value c b i n)) info.ii_defs
    | Cfg.Iread_scalar _ | Cfg.Iread_elem _ ->
      List.iter (fun (_, n) -> lower_value n Vbot) info.ii_defs
    | Cfg.Iastore _ | Cfg.Iprint _ -> ()
  in
  let visit_term b =
    let resolve name = List.assoc_opt name ssa.Ssa.term_uses.(b) in
    match cfg.blocks.(b).b_term with
    | Cfg.Tgoto t -> W.push flow_work (edge b t)
    | Cfg.Tbranch (c, bt, bf) -> (
      match eval_expr resolve c with
      | Vbool true -> W.push flow_work (edge b bt)
      | Vbool false -> W.push flow_work (edge b bf)
      | Vbot | Vint _ ->
        W.push flow_work (edge b bt);
        W.push flow_work (edge b bf)
      | Vtop -> () (* not enough information yet *))
    | Cfg.Treturn | Cfg.Tstop -> ()
  in
  let visit_block b =
    List.iter (visit_phi b) (Ssa.phis_of ssa b);
    Array.iteri (fun i _ -> visit_instr b i) ssa.Ssa.instrs.(b);
    visit_term b
  in
  (* ---- main loop ---- *)
  W.push flow_work entry_edge;
  let rec iterate () =
    if not (Ipcp_support.Budget.tick budget) then ()
    else
    match W.pop flow_work with
    | Some e ->
      if not edge_exec.(e) then begin
        edge_exec.(e) <- true;
        let dst = edge_dst.(e) in
        if not executable.(dst) then begin
          executable.(dst) <- true;
          visit_block dst
        end
        else
          (* block already live: only phis see the new edge *)
          List.iter (visit_phi dst) (Ssa.phis_of ssa dst)
      end;
      iterate ()
    | None -> (
      match W.pop ssa_work with
      | Some n ->
        List.iter
          (fun c ->
            match c with
            | Cphi b -> if executable.(b) then List.iter (visit_phi b) (Ssa.phis_of ssa b)
            | Cinstr (b, i) -> if executable.(b) then visit_instr b i
            | Cterm b -> if executable.(b) then visit_term b)
          uses.(n);
        iterate ()
      | None -> ())
  in
  iterate ();
  (* Budget exhausted: the partial fixed point is unusable (unvisited
     blocks still look dead, unvisited names still look ⊤ — both
     optimistic), so fall back to the fully conservative answer:
     everything ⊥, everything executable, no constants harvested. *)
  let degraded =
    match Ipcp_support.Budget.exhausted budget with
    | None -> []
    | Some reason ->
      Array.fill values 0 nnames Vbot;
      Array.fill executable 0 nblocks true;
      [ reason ]
  in
  (* ---- final harvest: constant uses, constant branch conditions ---- *)
  let expr_consts = Hashtbl.create 64 in
  let cond_consts = Hashtbl.create 16 in
  let rec record_expr resolve (e : Prog.expr) =
    (match e.edesc with
    | Prog.Evar v when Prog.is_scalar v && v.vty = Prog.Tint -> (
      match resolve v.vname with
      | Some n -> (
        match values.(n) with
        | Vint c -> Hashtbl.replace expr_consts e.eid c
        | Vtop | Vbool _ | Vbot -> ())
      | None -> ())
    | _ -> ());
    match e.edesc with
    | Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ | Prog.Evar _ ->
      ()
    | Prog.Earr (_, idx) -> List.iter (record_expr resolve) idx
    | Prog.Ecall (_, args) | Prog.Eintr (_, args) ->
      List.iter (record_expr resolve) args
    | Prog.Eun (_, a) -> record_expr resolve a
    | Prog.Ebin (_, a, b) ->
      record_expr resolve a;
      record_expr resolve b
  in
  if degraded = [] then
  Array.iteri
    (fun b blk_instrs ->
      if executable.(b) then begin
        Array.iteri
          (fun i instr ->
            let resolve name = resolve_in b i name in
            match (instr : Cfg.instr) with
            | Cfg.Iassign (_, e) -> record_expr resolve e
            | Cfg.Iastore (_, idx, e) ->
              List.iter (record_expr resolve) idx;
              record_expr resolve e
            | Cfg.Icall c -> List.iter (record_expr resolve) c.c_args
            | Cfg.Iread_elem (_, idx) -> List.iter (record_expr resolve) idx
            | Cfg.Iread_scalar _ -> ()
            | Cfg.Iprint es -> List.iter (record_expr resolve) es)
          blk_instrs;
        let resolve name = List.assoc_opt name ssa.Ssa.term_uses.(b) in
        match cfg.blocks.(b).b_term with
        | Cfg.Tbranch (c, _, _) -> (
          record_expr resolve c;
          match eval_expr resolve c with
          | Vbool value -> Hashtbl.replace cond_consts c.eid value
          | Vtop | Vint _ | Vbot -> ())
        | Cfg.Tgoto _ | Cfg.Treturn | Cfg.Tstop -> ()
      end)
    ssa.Ssa.instrs;
  if Ipcp_telemetry.Telemetry.enabled () then begin
    let fw = W.stats flow_work in
    let sw = W.stats ssa_work in
    Ipcp_telemetry.Telemetry.incr "sccp.runs";
    Ipcp_telemetry.Telemetry.add "sccp.flow_edge_visits" fw.pops;
    Ipcp_telemetry.Telemetry.add "sccp.ssa_visits" sw.pops;
    Ipcp_telemetry.Telemetry.add "sccp.executable_blocks"
      (Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 executable);
    Ipcp_telemetry.Telemetry.add "sccp.degraded" (List.length degraded)
  end;
  { values; executable; expr_consts; cond_consts; degraded }
