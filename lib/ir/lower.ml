(** Lowering resolved procedures to control-flow graphs.

    - Function calls are hoisted out of expressions into {!Cfg.Icall}
      instructions assigning fresh compiler temporaries (evaluation order is
      left to right, matching the interpreter).
    - By-reference actuals (scalar variables, array elements, whole arrays)
      are kept as lvalues; only their subscripts are lowered.
    - [do] loops evaluate their bounds and step once into temporaries
      (FORTRAN semantics), then test in a header block.  When the step is a
      literal the test specializes to a single comparison.
    - [goto]/labels map onto block edges; statements made unreachable by
      [return]/[stop]/[goto] land in unreachable blocks that downstream
      passes ignore. *)

open Ipcp_frontend

type builder = {
  proc : Prog.proc;
  mutable blocks : Cfg.block list;  (** reversed *)
  mutable nblocks : int;
  mutable cur : Cfg.block option;  (** block currently being filled *)
  mutable ntemps : int;
  label_blocks : (int, int) Hashtbl.t;  (** statement label → block id *)
  mutable next_expr_id : int;  (** fresh ids for synthesized expressions *)
}

let new_block b : Cfg.block =
  let blk = { Cfg.b_id = b.nblocks; b_instrs = []; b_term = Cfg.Treturn } in
  b.nblocks <- b.nblocks + 1;
  b.blocks <- blk :: b.blocks;
  blk

(* Fresh temporary variable; '@' cannot appear in source identifiers. *)
let fresh_temp b ty : Prog.var =
  let n = b.ntemps in
  b.ntemps <- n + 1;
  { Prog.vname = Printf.sprintf "@t%d" n; vty = ty; vdims = []; vkind = Klocal }

let fresh_expr b ety edesc : Prog.expr =
  let id = b.next_expr_id in
  b.next_expr_id <- id + 1;
  { Prog.eid = id; eloc = Loc.dummy; ety; edesc }

let emit b instr =
  match b.cur with
  | Some blk -> blk.Cfg.b_instrs <- instr :: blk.Cfg.b_instrs
  | None ->
    (* unreachable code after return/stop/goto: collect it in a fresh block *)
    let blk = new_block b in
    blk.Cfg.b_instrs <- [ instr ];
    b.cur <- Some blk

let ensure_current b : Cfg.block =
  match b.cur with
  | Some blk -> blk
  | None ->
    let blk = new_block b in
    b.cur <- Some blk;
    blk

(* Terminate the current block (if any) and leave no current block. *)
let finish b term =
  match b.cur with
  | Some blk ->
    blk.Cfg.b_term <- term;
    b.cur <- None
  | None -> ()

(* Start (or continue into) the given block. *)
let start_block b blk =
  (match b.cur with
  | Some prev -> prev.Cfg.b_term <- Cfg.Tgoto blk.Cfg.b_id
  | None -> ());
  b.cur <- Some blk

let block_for_label b l =
  match Hashtbl.find_opt b.label_blocks l with
  | Some id -> id
  | None ->
    let blk = new_block b in
    Hashtbl.replace b.label_blocks l blk.Cfg.b_id;
    blk.Cfg.b_id

(* ------------------------------------------------------------------ *)
(* Expression lowering: hoist calls into Icall instructions.            *)

let rec lower_expr b (e : Prog.expr) : Prog.expr =
  match e.edesc with
  | Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ | Prog.Evar _ -> e
  | Prog.Earr (v, idx) ->
    { e with edesc = Prog.Earr (v, List.map (lower_expr b) idx) }
  | Prog.Eintr (intr, args) ->
    { e with edesc = Prog.Eintr (intr, List.map (lower_expr b) args) }
  | Prog.Eun (op, a) -> { e with edesc = Prog.Eun (op, lower_expr b a) }
  | Prog.Ebin (op, x, y) ->
    let x = lower_expr b x in
    let y = lower_expr b y in
    { e with edesc = Prog.Ebin (op, x, y) }
  | Prog.Ecall (f, args) ->
    let args = List.map (lower_actual b) args in
    let tmp = fresh_temp b e.ety in
    emit b
      (Cfg.Icall
         {
           c_site = e.eid;
           c_callee = f;
           c_args = args;
           c_result = Some tmp;
           c_loc = e.eloc;
         });
    { e with edesc = Prog.Evar tmp }

(* Actual arguments: keep lvalues intact (by-reference), lower everything
   else.  Subscripts of array-element actuals are lowered in place. *)
and lower_actual b (a : Prog.expr) : Prog.expr =
  match a.edesc with
  | Prog.Evar _ -> a
  | Prog.Earr (v, idx) -> { a with edesc = Prog.Earr (v, List.map (lower_expr b) idx) }
  | _ -> lower_expr b a

(* ------------------------------------------------------------------ *)
(* Statement lowering.                                                  *)

let rec lower_stmts b stmts = List.iter (lower_stmt b) stmts

and lower_stmt b (s : Prog.stmt) : unit =
  (* A labelled statement begins its own block so gotos can land on it. *)
  (match s.slabel with
  | Some l ->
    let id = block_for_label b l in
    let blk = (List.find (fun (x : Cfg.block) -> x.b_id = id)) b.blocks in
    start_block b blk
  | None -> ());
  match s.sdesc with
  | Prog.Sassign (lhs, e) -> (
    let rv = lower_expr b e in
    match lhs with
    | Prog.Lvar v -> emit b (Cfg.Iassign (v, rv))
    | Prog.Larr (v, idx) ->
      let idx = List.map (lower_expr b) idx in
      emit b (Cfg.Iastore (v, idx, rv)))
  | Prog.Scall (f, args) ->
    let args = List.map (lower_actual b) args in
    emit b
      (Cfg.Icall
         {
           c_site = s.sid;
           c_callee = f;
           c_args = args;
           c_result = None;
           c_loc = s.sloc;
         })
  | Prog.Sif (arms, els) ->
    let join = new_block b in
    let rec gen_arms = function
      | [] ->
        lower_stmts b els;
        finish b (Cfg.Tgoto join.Cfg.b_id)
      | (cond, body) :: rest ->
        let cond = lower_expr b cond in
        let then_blk = new_block b in
        let else_blk = new_block b in
        finish b (Cfg.Tbranch (cond, then_blk.Cfg.b_id, else_blk.Cfg.b_id));
        b.cur <- Some then_blk;
        lower_stmts b body;
        finish b (Cfg.Tgoto join.Cfg.b_id);
        b.cur <- Some else_blk;
        gen_arms rest
    in
    ignore (ensure_current b);
    gen_arms arms;
    b.cur <- Some join
  | Prog.Sdo (v, lo, hi, step, body) -> lower_do b v lo hi step body
  | Prog.Sdowhile (cond, body) ->
    let header = new_block b in
    let body_blk = new_block b in
    let exit_blk = new_block b in
    start_block b header;
    let cond = lower_expr b cond in
    finish b (Cfg.Tbranch (cond, body_blk.Cfg.b_id, exit_blk.Cfg.b_id));
    b.cur <- Some body_blk;
    lower_stmts b body;
    finish b (Cfg.Tgoto header.Cfg.b_id);
    b.cur <- Some exit_blk
  | Prog.Sgoto l ->
    let id = block_for_label b l in
    finish b (Cfg.Tgoto id)
  | Prog.Scontinue -> ignore (ensure_current b)
  | Prog.Sreturn -> finish b Cfg.Treturn
  | Prog.Sstop -> finish b Cfg.Tstop
  | Prog.Sprint es -> emit b (Cfg.Iprint (List.map (lower_expr b) es))
  | Prog.Sread ls ->
    List.iter
      (fun lhs ->
        match lhs with
        | Prog.Lvar v -> emit b (Cfg.Iread_scalar v)
        | Prog.Larr (v, idx) ->
          emit b (Cfg.Iread_elem (v, List.map (lower_expr b) idx)))
      ls

and lower_do b v lo hi step body =
  (* Evaluate bounds once, as FORTRAN does. *)
  let lo = lower_expr b lo in
  let hi = lower_expr b hi in
  let step_e = Option.map (lower_expr b) step in
  let hoist (e : Prog.expr) =
    match e.edesc with
    | Prog.Cint _ | Prog.Creal _ -> e
    | _ ->
      let t = fresh_temp b e.ety in
      emit b (Cfg.Iassign (t, e));
      fresh_expr b e.ety (Prog.Evar t)
  in
  let hi = hoist hi in
  let step_e = Option.map hoist step_e in
  emit b (Cfg.Iassign (v, lo));
  let header = new_block b in
  let body_blk = new_block b in
  let exit_blk = new_block b in
  start_block b header;
  let var_e () = fresh_expr b Prog.Tint (Prog.Evar v) in
  let int_e n = fresh_expr b Prog.Tint (Prog.Cint n) in
  let bin ty op x y = fresh_expr b ty (Prog.Ebin (op, x, y)) in
  let cond =
    match step_e with
    | None -> bin Prog.Tlogical Ast.Le (var_e ()) hi
    | Some ({ edesc = Prog.Cint k; _ } as _st) ->
      if k >= 0 then bin Prog.Tlogical Ast.Le (var_e ()) hi
      else bin Prog.Tlogical Ast.Ge (var_e ()) hi
    | Some st ->
      (* (step > 0 and v <= hi) or (step <= 0 and v >= hi) *)
      let pos = bin Prog.Tlogical Ast.Gt st (int_e 0) in
      let up = bin Prog.Tlogical Ast.Le (var_e ()) hi in
      let neg = bin Prog.Tlogical Ast.Le st (int_e 0) in
      let down = bin Prog.Tlogical Ast.Ge (var_e ()) hi in
      bin Prog.Tlogical Ast.Or
        (bin Prog.Tlogical Ast.And pos up)
        (bin Prog.Tlogical Ast.And neg down)
  in
  finish b (Cfg.Tbranch (cond, body_blk.Cfg.b_id, exit_blk.Cfg.b_id));
  b.cur <- Some body_blk;
  lower_stmts b body;
  let incr =
    match step_e with
    | None -> bin Prog.Tint Ast.Add (var_e ()) (int_e 1)
    | Some st -> bin Prog.Tint Ast.Add (var_e ()) st
  in
  emit b (Cfg.Iassign (v, incr));
  finish b (Cfg.Tgoto header.Cfg.b_id);
  b.cur <- Some exit_blk

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

(** Lower a resolved procedure.  [next_expr_id] must be larger than any
    expression id already in the program, so synthesized expressions get
    fresh ids; pass the program-wide id ceiling. *)
let lower_proc ~next_expr_id (proc : Prog.proc) : Cfg.t =
  let b =
    {
      proc;
      blocks = [];
      nblocks = 0;
      cur = None;
      ntemps = 0;
      label_blocks = Hashtbl.create 8;
      next_expr_id;
    }
  in
  let entry = new_block b in
  b.cur <- Some entry;
  lower_stmts b proc.pbody;
  (* Falling off the end returns (stops, for the main program). *)
  finish b (if proc.pkind = Prog.Pmain then Cfg.Tstop else Cfg.Treturn);
  let blocks = Array.of_list (List.rev b.blocks) in
  Array.sort (fun (x : Cfg.block) y -> compare x.b_id y.b_id) blocks;
  Array.iter
    (fun (blk : Cfg.block) -> blk.b_instrs <- List.rev blk.b_instrs)
    blocks;
  { Cfg.proc_name = proc.pname; entry = entry.Cfg.b_id; blocks }

(** One past the highest statement/expression id of one procedure. *)
let proc_id_ceiling (p : Prog.proc) : int =
  let m = ref 0 in
  Prog.iter_exprs (fun e -> if e.eid >= !m then m := e.eid + 1) p.pbody;
  Prog.iter_stmts (fun s -> if s.sid >= !m then m := s.sid + 1) p.pbody;
  !m

(** Highest expression id in a resolved program, plus one: the safe starting
    point for synthesized expression ids. *)
let expr_id_ceiling (prog : Prog.t) : int =
  Ipcp_telemetry.Telemetry.incr "prog.walks";
  List.fold_left (fun m p -> max m (proc_id_ceiling p)) 0 prog.procs
