(** One-step re-evaluation of published SCCP results (certifier pillar,
    SCCP obligations).

    For every procedure the certifier takes {!Ipcp_core.Driver.sccp_for}
    — the result's memoized SCCP, so exactly the facts the substitution
    pass consumes, including any an incremental update copied from the
    previous version — and checks that it is internally consistent as a
    {e post-fixpoint} of the SCCP transfer functions:

    - entry names hold at most their seed (the certified entry constant,
      or ⊥);
    - the executable-block set contains the entry block and is closed
      under the branch-target relation re-derived from the final values;
    - every definition in an executable block is ⊑ one transfer-function
      re-evaluation under the final values (assignments through an
      independent expression evaluator, call definitions through the
      published return-jump-function table, [read] definitions at ⊥);
    - every phi destination is ⊑ the meet of its arguments over the
      re-derived executable incoming edges;
    - the harvested constant-use and constant-branch tables are contained
      in an independent re-harvest;
    - a degraded run claims no facts at all.

    The evaluators here deliberately re-implement the SCCP semantics
    rather than calling into {!Ipcp_analysis.Sccp}: a bug in a transfer
    function shows up as a disagreement between the solver's fixpoint and
    this one-step check. *)

open Ipcp_frontend
open Ipcp_ir
open Ipcp_analysis
open Ipcp_core

type add =
  code:string -> proc:string -> loc:Loc.t -> string -> unit

(* ⊑ on the SCCP value lattice: ⊥ below everything, ⊤ above. *)
let vle (a : Sccp.value) (b : Sccp.value) =
  match (a, b) with
  | Sccp.Vbot, _ -> true
  | _, Sccp.Vtop -> true
  | a, b -> Sccp.equal_value a b

let vmeet (a : Sccp.value) (b : Sccp.value) : Sccp.value =
  match (a, b) with
  | Sccp.Vtop, x | x, Sccp.Vtop -> x
  | Sccp.Vbot, _ | _, Sccp.Vbot -> Sccp.Vbot
  | Sccp.Vint x, Sccp.Vint y -> if x = y then a else Sccp.Vbot
  | Sccp.Vbool x, Sccp.Vbool y -> if x = y then a else Sccp.Vbot
  | (Sccp.Vint _ | Sccp.Vbool _), _ -> Sccp.Vbot

(* Second implementation of the expression transfer function, over the
   final [values] array.  Must track the analysis semantics exactly:
   type-guarded variable reads, integers-only arithmetic, ⊥ on traps. *)
let rec eval_expr (values : Sccp.value array)
    (resolve : string -> int option) (e : Prog.expr) : Sccp.value =
  match e.edesc with
  | Prog.Cint n -> Sccp.Vint n
  | Prog.Cbool b -> Sccp.Vbool b
  | Prog.Creal _ | Prog.Cstr _ -> Sccp.Vbot
  | Prog.Evar v ->
    if Prog.is_array v then Sccp.Vbot
    else (
      match resolve v.vname with
      | None -> Sccp.Vbot
      | Some n -> (
        let value = values.(n) in
        match (v.vty, value) with
        | Prog.Tint, (Sccp.Vint _ | Sccp.Vtop | Sccp.Vbot) -> value
        | Prog.Tlogical, (Sccp.Vbool _ | Sccp.Vtop | Sccp.Vbot) -> value
        | Prog.Treal, _ -> Sccp.Vbot
        | _ -> Sccp.Vbot))
  | Prog.Earr _ -> Sccp.Vbot
  | Prog.Ecall _ -> Sccp.Vbot
  | Prog.Eintr (intr, args) -> (
    let vs = List.map (eval_expr values resolve) args in
    if
      List.exists
        (fun v -> v = Sccp.Vbot || match v with Sccp.Vbool _ -> true | _ -> false)
        vs
    then Sccp.Vbot
    else if List.exists (fun v -> v = Sccp.Vtop) vs then Sccp.Vtop
    else
      let ints =
        List.filter_map (function Sccp.Vint n -> Some n | _ -> None) vs
      in
      match Symbolic.fold_intrinsic intr ints with
      | Some v -> Sccp.Vint v
      | None -> Sccp.Vbot)
  | Prog.Eun (Ast.Neg, a) -> (
    match eval_expr values resolve a with
    | Sccp.Vint n -> Sccp.Vint (-n)
    | Sccp.Vtop -> Sccp.Vtop
    | Sccp.Vbool _ | Sccp.Vbot -> Sccp.Vbot)
  | Prog.Eun (Ast.Not, a) -> (
    match eval_expr values resolve a with
    | Sccp.Vbool b -> Sccp.Vbool (not b)
    | Sccp.Vtop -> Sccp.Vtop
    | Sccp.Vint _ | Sccp.Vbot -> Sccp.Vbot)
  | Prog.Ebin (op, a, b) -> (
    let va = eval_expr values resolve a in
    let vb = eval_expr values resolve b in
    match (va, vb) with
    | Sccp.Vbot, _ | _, Sccp.Vbot -> Sccp.Vbot
    | Sccp.Vtop, _ | _, Sccp.Vtop -> Sccp.Vtop
    | Sccp.Vint x, Sccp.Vint y -> (
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
        if e.ety <> Prog.Tint then Sccp.Vbot
        else begin
          match op with
          | Ast.Add -> Sccp.Vint (x + y)
          | Ast.Sub -> Sccp.Vint (x - y)
          | Ast.Mul -> Sccp.Vint (x * y)
          | Ast.Div -> if y = 0 then Sccp.Vbot else Sccp.Vint (x / y)
          | Ast.Pow -> (
            match Symbolic.int_pow x y with
            | Some v -> Sccp.Vint v
            | None -> Sccp.Vbot)
          | _ -> Sccp.Vbot
        end
      | Ast.Lt -> Sccp.Vbool (x < y)
      | Ast.Le -> Sccp.Vbool (x <= y)
      | Ast.Gt -> Sccp.Vbool (x > y)
      | Ast.Ge -> Sccp.Vbool (x >= y)
      | Ast.Eq -> Sccp.Vbool (x = y)
      | Ast.Ne -> Sccp.Vbool (x <> y)
      | Ast.And | Ast.Or -> Sccp.Vbot)
    | Sccp.Vbool x, Sccp.Vbool y -> (
      match op with
      | Ast.And -> Sccp.Vbool (x && y)
      | Ast.Or -> Sccp.Vbool (x || y)
      | _ -> Sccp.Vbot)
    | (Sccp.Vint _ | Sccp.Vbool _), _ -> Sccp.Vbot)

(* Re-evaluation of a call-defined value through the published return
   jump functions; mirrors SCCP's target resolution.  Only the oracle
   and the IR are consulted. *)
let call_value (t : Driver.t) (ssa : Ssa.t)
    (values : Sccp.value array) (c : Cfg.call) b i n : Sccp.value =
  let { Ssa.d_var; _ } = Ssa.def ssa n in
  if d_var.vty <> Prog.Tint then Sccp.Vbot
  else
    match Driver.oracle t with
    | None -> Sccp.Vbot
    | Some oracle -> (
      let target =
        match c.Cfg.c_result with
        | Some r when r.vname = d_var.vname -> Some Ssa_value.Tresult
        | _ -> (
          let matches (a : Prog.expr) =
            match a.edesc with
            | Prog.Evar v -> v.vname = d_var.vname && Prog.is_scalar v
            | _ -> false
          in
          let count = List.length (List.filter matches c.Cfg.c_args) in
          let first_pos =
            let rec find k = function
              | [] -> None
              | a :: rest -> if matches a then Some k else find (k + 1) rest
            in
            find 0 c.Cfg.c_args
          in
          match (count, first_pos, d_var.vkind) with
          | 1, Some pos, (Prog.Kformal _ | Prog.Klocal | Prog.Kresult) ->
            Some (Ssa_value.Tformal pos)
          | 0, None, Prog.Kglobal g ->
            Some (Ssa_value.Tglobal (Prog.global_key g))
          | _ -> None)
      in
      match target with
      | None -> Sccp.Vbot
      | Some target -> (
        let lookup = function
          | Symbolic.Lformal pos -> (
            match List.nth_opt c.Cfg.c_args pos with
            | None -> None
            | Some a -> (
              match eval_expr values (fun nm -> Ssa.use_at ssa b i nm) a with
              | Sccp.Vint v -> Some v
              | Sccp.Vtop | Sccp.Vbool _ | Sccp.Vbot -> None))
          | Symbolic.Lglobal key ->
            let info = Ssa.info_at ssa b i in
            List.find_map
              (fun (_, m) ->
                let v = Ssa.var_of ssa m in
                match v.Prog.vkind with
                | Prog.Kglobal g when Prog.global_key g = key -> (
                  match values.(m) with
                  | Sccp.Vint cst -> Some cst
                  | Sccp.Vtop | Sccp.Vbool _ | Sccp.Vbot -> None)
                | _ -> None)
              info.Ssa.ii_uses
        in
        match oracle c target lookup with
        | Some cst -> Sccp.Vint cst
        | None -> Sccp.Vbot))

let pp_v = Sccp.pp_value

let check_proc (t : Driver.t)
    ~(entry_const : Prog.proc -> Prog.var -> int option) ~(add : add)
    ~obligation name (r : Sccp.result) =
  let ir = Hashtbl.find t.Driver.irs name in
  let proc = ir.Jump_function.pi_proc in
  let ssa = ir.Jump_function.pi_ssa in
  let cfg = ssa.Ssa.cfg in
  (* eid → source location, for locating fact violations *)
  let eid_locs : (int, Loc.t) Hashtbl.t = Hashtbl.create 64 in
  Prog.iter_exprs (fun e -> Hashtbl.replace eid_locs e.eid e.eloc) proc.pbody;
  let loc_of_eid eid =
    Hashtbl.find_opt eid_locs eid |> Option.value ~default:proc.ploc
  in
  let add ~code ~loc msg = add ~code ~proc:name ~loc msg in
  if r.Sccp.degraded <> [] then begin
    (* a degraded run must be the fully conservative no-facts answer *)
    obligation ();
    if
      Hashtbl.length r.Sccp.expr_consts <> 0
      || Hashtbl.length r.Sccp.cond_consts <> 0
    then
      add ~code:"E-CERT-SCCP" ~loc:proc.ploc
        "degraded SCCP run still claims constant facts";
    if Array.exists (fun v -> not (Sccp.equal_value v Sccp.Vbot)) r.Sccp.values
    then
      add ~code:"E-CERT-SCCP" ~loc:proc.ploc
        "degraded SCCP run keeps non-bottom values";
    if Array.exists not r.Sccp.executable then
      add ~code:"E-CERT-SCCP" ~loc:proc.ploc
        "degraded SCCP run keeps blocks marked dead"
  end
  else begin
    let values = r.Sccp.values in
    let executable = r.Sccp.executable in
    let nblocks = Cfg.num_blocks cfg in
    (* ---- entry seeds ---- *)
    List.iter
      (fun (_, n) ->
        let { Ssa.d_var; _ } = Ssa.def ssa n in
        let seed =
          if Prog.is_array d_var then Sccp.Vbot
          else
            match d_var.vkind with
            | Prog.Kformal _ | Prog.Kglobal _ ->
              if d_var.vty = Prog.Tint then (
                match entry_const proc d_var with
                | Some c -> Sccp.Vint c
                | None -> Sccp.Vbot)
              else Sccp.Vbot
            | Prog.Klocal | Prog.Kresult -> Sccp.Vbot
        in
        obligation ();
        if not (vle values.(n) seed) then
          add ~code:"E-CERT-SCCP" ~loc:proc.ploc
            (Fmt.str "entry value of %s is %a, above its certified seed %a"
               d_var.vname pp_v values.(n) pp_v seed))
      ssa.Ssa.entry_names;
    (* ---- executable-set closure under re-derived branch targets ---- *)
    obligation ();
    if not executable.(cfg.Cfg.entry) then
      add ~code:"E-CERT-SCCP" ~loc:proc.ploc "entry block marked dead";
    let term_resolve b nm = List.assoc_opt nm ssa.Ssa.term_uses.(b) in
    let targets b =
      match cfg.Cfg.blocks.(b).b_term with
      | Cfg.Tgoto tgt -> [ tgt ]
      | Cfg.Tbranch (c, bt, bf) -> (
        match eval_expr values (term_resolve b) c with
        | Sccp.Vbool true -> [ bt ]
        | Sccp.Vbool false -> [ bf ]
        | Sccp.Vbot | Sccp.Vint _ -> [ bt; bf ]
        | Sccp.Vtop -> [])
      | Cfg.Treturn | Cfg.Tstop -> []
    in
    for b = 0 to nblocks - 1 do
      if executable.(b) then
        List.iter
          (fun tgt ->
            obligation ();
            if not executable.(tgt) then
              add ~code:"E-CERT-SCCP" ~loc:proc.ploc
                (Fmt.str
                   "block B%d is executable but its live successor B%d is \
                    marked dead"
                   b tgt))
          (targets b)
    done;
    let edge_exec p b = executable.(p) && List.mem b (targets p) in
    (* ---- one-step transfer re-evaluation ---- *)
    for b = 0 to nblocks - 1 do
      if executable.(b) then begin
        List.iter
          (fun (p : Ssa.phi) ->
            let incoming =
              List.filter_map
                (fun (pred, arg) ->
                  if edge_exec pred b then Some values.(arg) else None)
                p.Ssa.p_args
            in
            match incoming with
            | [] -> ()
            | v :: rest ->
              obligation ();
              let m = List.fold_left vmeet v rest in
              if not (vle values.(p.Ssa.p_dest) m) then
                add ~code:"E-CERT-SCCP" ~loc:proc.ploc
                  (Fmt.str
                     "phi for %s in B%d holds %a, above the meet %a of its \
                      executable arguments"
                     p.Ssa.p_var b pp_v values.(p.Ssa.p_dest) pp_v m))
          (Ssa.phis_of ssa b);
        Array.iteri
          (fun i instr ->
            let info = Ssa.info_at ssa b i in
            let check_defs expected what =
              List.iter
                (fun (_, n) ->
                  obligation ();
                  if not (vle values.(n) expected) then
                    add ~code:"E-CERT-SCCP" ~loc:proc.ploc
                      (Fmt.str
                         "%s definition of %s in B%d holds %a, above its \
                          one-step re-evaluation %a"
                         what (Ssa.var_of ssa n).Prog.vname b pp_v values.(n)
                         pp_v expected))
                info.Ssa.ii_defs
            in
            match (instr : Cfg.instr) with
            | Cfg.Iassign (v, e) ->
              let value =
                eval_expr values (fun nm -> Ssa.use_at ssa b i nm) e
              in
              let value =
                match (v.Prog.vty, value) with
                | Prog.Tint, (Sccp.Vint _ | Sccp.Vtop) -> value
                | Prog.Tlogical, (Sccp.Vbool _ | Sccp.Vtop) -> value
                | _ -> Sccp.Vbot
              in
              check_defs value "assignment"
            | Cfg.Icall c ->
              List.iter
                (fun (_, n) ->
                  obligation ();
                  let expected = call_value t ssa values c b i n in
                  if not (vle values.(n) expected) then
                    add ~code:"E-CERT-SCCP" ~loc:c.Cfg.c_loc
                      (Fmt.str
                         "call to %s leaves %s at %a, above its \
                          return-jump-function re-evaluation %a"
                         c.Cfg.c_callee (Ssa.var_of ssa n).Prog.vname pp_v
                         values.(n) pp_v expected))
                info.Ssa.ii_defs
            | Cfg.Iread_scalar _ | Cfg.Iread_elem _ ->
              check_defs Sccp.Vbot "read"
            | Cfg.Iastore _ | Cfg.Iprint _ -> ())
          ssa.Ssa.instrs.(b)
      end
    done;
    (* ---- independent re-harvest of the claimed fact tables ---- *)
    let expr_mine : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let cond_mine : (int, bool) Hashtbl.t = Hashtbl.create 16 in
    let rec record resolve (e : Prog.expr) =
      (match e.edesc with
      | Prog.Evar v when Prog.is_scalar v && v.vty = Prog.Tint -> (
        match resolve v.vname with
        | Some n -> (
          match values.(n) with
          | Sccp.Vint c -> Hashtbl.replace expr_mine e.eid c
          | Sccp.Vtop | Sccp.Vbool _ | Sccp.Vbot -> ())
        | None -> ())
      | _ -> ());
      match e.edesc with
      | Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ | Prog.Evar _
        ->
        ()
      | Prog.Earr (_, idx) -> List.iter (record resolve) idx
      | Prog.Ecall (_, args) | Prog.Eintr (_, args) ->
        List.iter (record resolve) args
      | Prog.Eun (_, a) -> record resolve a
      | Prog.Ebin (_, a, b) ->
        record resolve a;
        record resolve b
    in
    Array.iteri
      (fun b blk_instrs ->
        if executable.(b) then begin
          Array.iteri
            (fun i instr ->
              let resolve nm = Ssa.use_at ssa b i nm in
              match (instr : Cfg.instr) with
              | Cfg.Iassign (_, e) -> record resolve e
              | Cfg.Iastore (_, idx, e) ->
                List.iter (record resolve) idx;
                record resolve e
              | Cfg.Icall c -> List.iter (record resolve) c.Cfg.c_args
              | Cfg.Iread_elem (_, idx) -> List.iter (record resolve) idx
              | Cfg.Iread_scalar _ -> ()
              | Cfg.Iprint es -> List.iter (record resolve) es)
            blk_instrs;
          let resolve nm = List.assoc_opt nm ssa.Ssa.term_uses.(b) in
          match cfg.Cfg.blocks.(b).b_term with
          | Cfg.Tbranch (c, _, _) -> (
            record resolve c;
            match eval_expr values resolve c with
            | Sccp.Vbool value -> Hashtbl.replace cond_mine c.eid value
            | Sccp.Vtop | Sccp.Vint _ | Sccp.Vbot -> ())
          | Cfg.Tgoto _ | Cfg.Treturn | Cfg.Tstop -> ()
        end)
      ssa.Ssa.instrs;
    Hashtbl.iter
      (fun eid c ->
        obligation ();
        match Hashtbl.find_opt expr_mine eid with
        | Some c' when c' = c -> ()
        | _ ->
          add ~code:"E-CERT-SCCP" ~loc:(loc_of_eid eid)
            (Fmt.str
               "claimed constant use (expression %d = %d) is not justified \
                by an independent re-harvest"
               eid c))
      r.Sccp.expr_consts;
    Hashtbl.iter
      (fun eid bval ->
        obligation ();
        match Hashtbl.find_opt cond_mine eid with
        | Some b' when b' = bval -> ()
        | _ ->
          add ~code:"E-CERT-SCCP" ~loc:(loc_of_eid eid)
            (Fmt.str
               "claimed constant branch (expression %d = %b) is not \
                justified by an independent re-harvest"
               eid bval))
      r.Sccp.cond_consts
  end

(** Check every procedure's SCCP facts.  [sccps] carries the per-procedure
    results the caller obtained from {!Driver.sccp_for} (memoized in the
    result, so the execution witness's substitution reuses them and SCCP
    runs once per procedure).
    [entry_const] is the certifier's reading of the entry constant a
    formal/global holds under the (already edge-certified) solution —
    what [Driver.sccp_for] seeds. *)
let check (t : Driver.t)
    ~(entry_const : Prog.proc -> Prog.var -> int option)
    ~(sccps : (string * Sccp.result) list) ~(add : add) ~obligation : unit =
  List.iter
    (fun (name, r) -> check_proc t ~entry_const ~add ~obligation name r)
    sccps
