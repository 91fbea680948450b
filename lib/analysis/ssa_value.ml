(** SSA-based value numbering / symbolic evaluation.

    For every SSA name this module computes a {!Symbolic.t}: an expression
    over the procedure's entry values (formals and globals) and integer
    constants, or [Unknown].  This is the machinery on which all four
    forward jump functions and the return jump functions are built (paper
    §3: "we built a set of jump functions on top of an existing framework
    for global value numbering"):

    - a name whose symbolic value is [Const c] is an intraprocedural
      constant (the paper's [gcp]);
    - a name whose symbolic value is exactly [Leaf l] is a pass-through of
      an entry value;
    - any other non-[Unknown] value is a polynomial jump-function body.

    Values flowing through calls are resolved via a caller-supplied
    [oracle]: when a call (re)defines a scalar — its function result, a
    modified by-reference actual, or a modified global — the oracle may
    supply a constant from the callee's *return jump function*, given the
    constant actuals at the site.  Per the paper (§3.2), return jump
    functions that depend on non-constant values in the caller are never
    evaluated as constant, so the oracle only sees constant actuals. *)

open Ipcp_frontend
open Ipcp_ir

(** What a call (re)defined. *)
type target =
  | Tresult  (** the function's result value *)
  | Tformal of int  (** the by-reference actual bound to formal [i] *)
  | Tglobal of string  (** the global with this key *)

(** [oracle call target lookup] returns the constant value the call leaves
    in [target], if the callee's return jump function evaluates to a
    constant.  [lookup] resolves the callee's entry leaves at this site:
    [Lformal i] is the constant value of the [i]-th actual, [Lglobal k] the
    constant value of global [k] reaching the site — in both cases only when
    actually constant, per the paper's rule that return jump functions
    depending on the caller's own parameters never evaluate as constant. *)
type oracle = Cfg.call -> target -> (Symbolic.leaf -> int option) -> int option

type t = {
  ssa : Ssa.t;
  oracle : oracle option;
  entry_const : Prog.var -> int option;
      (** known constant entry values — e.g. [data]-initialized variables of
          the main program, where load-time values hold on entry *)
  mutable memo : Symbolic.t option array;  (** per SSA name *)
  mutable visiting : bool array;  (** per SSA name: on the evaluation stack *)
}

(* The per-name arrays are allocated on the first query: most values of a
   procedure whose jump functions an update copies are never asked. *)
let create ?oracle ?(entry_const = fun (_ : Prog.var) -> None) (ssa : Ssa.t) : t =
  { ssa; oracle; entry_const; memo = [||]; visiting = [||] }

(** What call [c] (re)defines in variable [v]: its result, the
    by-reference actual bound to a formal position, or a global.  [None]
    when that is not attributable — a global passed as an actual, or a
    variable passed in several argument positions. *)
let call_target (c : Cfg.call) (v : Prog.var) : target option =
  match c.c_result with
  | Some r when r.vname = v.vname -> Some Tresult
  | _ -> (
    (* the positions where [v] is a by-ref scalar actual: how many, and
       the first *)
    let rec scan pos first count = function
      | [] -> (first, count)
      | (a : Prog.expr) :: rest -> (
        match a.edesc with
        | Prog.Evar w when w.vname = v.vname && Prog.is_scalar w ->
          scan (pos + 1) (if count = 0 then pos else first) (count + 1) rest
        | _ -> scan (pos + 1) first count rest)
    in
    match (scan 0 0 0 c.c_args, v.vkind) with
    | (pos, 1), (Prog.Kformal _ | Prog.Klocal | Prog.Kresult) ->
      Some (Tformal pos)
    | (_, 0), Prog.Kglobal g -> Some (Tglobal (Prog.global_key g))
    | _ -> None)

let leaf_of_var (v : Prog.var) : Symbolic.t =
  match v.vkind with
  | Prog.Kformal i when v.vty = Prog.Tint && Prog.is_scalar v ->
    Symbolic.leaf (Symbolic.Lformal i)
  | Prog.Kglobal g when v.vty = Prog.Tint && Prog.is_scalar v ->
    Symbolic.leaf (Symbolic.Lglobal (Prog.global_key g))
  | Prog.Kformal _ | Prog.Kglobal _ | Prog.Klocal | Prog.Kresult ->
    Symbolic.unknown

let rec sym_of_name t (n : Ssa.ssa_name) : Symbolic.t =
  if Array.length t.memo = 0 then begin
    let names = Ssa.num_names t.ssa in
    t.memo <- Array.make names None;
    t.visiting <- Array.make names false
  end;
  match t.memo.(n) with
  | Some s -> s
  | None ->
    if t.visiting.(n) then
      (* loop-carried value: conservatively unknown *)
      Symbolic.unknown
    else begin
      t.visiting.(n) <- true;
      let result = compute t n in
      t.visiting.(n) <- false;
      t.memo.(n) <- Some result;
      result
    end

and compute t n : Symbolic.t =
  let { Ssa.d_var; d_site } = Ssa.def t.ssa n in
  if d_var.vty <> Prog.Tint || Prog.is_array d_var then Symbolic.unknown
  else
    match d_site with
    | Ssa.Dentry -> (
      match t.entry_const d_var with
      | Some c -> Symbolic.const c
      | None -> leaf_of_var d_var)
    | Ssa.Dphi b -> (
      match Ssa.phis_of t.ssa b with
      | phis -> (
        match List.find_opt (fun (p : Ssa.phi) -> p.p_dest = n) phis with
        | None -> Symbolic.unknown
        | Some p -> (
          match p.p_args with
          | [] -> Symbolic.unknown
          | (_, first) :: rest ->
            let s0 = sym_of_name t first in
            if Symbolic.is_unknown s0 then Symbolic.unknown
            else if
              List.for_all
                (fun (_, arg) -> Symbolic.equal s0 (sym_of_name t arg))
                rest
            then s0
            else Symbolic.unknown)))
    | Ssa.Dinstr (b, i) -> compute_instr t d_var b i

and compute_instr t (d_var : Prog.var) b i : Symbolic.t =
  match Ssa.instr_at t.ssa b i with
  | Cfg.Iassign (v, e) ->
    if v.vname = d_var.vname then sym_of_expr t ~block:b ~instr:i e
    else Symbolic.unknown
  | Cfg.Icall c -> (
    match t.oracle with
    | None -> Symbolic.unknown
    | Some oracle -> (
      match call_target c d_var with
      | None -> Symbolic.unknown
      | Some target -> (
        let instr_index = i in
        let lookup = function
          | Symbolic.Lformal pos -> (
            match List.nth_opt c.c_args pos with
            | None -> None
            | Some a ->
              Symbolic.const_value (sym_of_expr t ~block:b ~instr:instr_index a))
          | Symbolic.Lglobal key ->
            (* version of that global reaching this call site *)
            let info = Ssa.info_at t.ssa b instr_index in
            List.find_map
              (fun (_, n) ->
                let v = Ssa.var_of t.ssa n in
                match v.vkind with
                | Prog.Kglobal g when Prog.global_key g = key ->
                  Symbolic.const_value (sym_of_name t n)
                | _ -> None)
              info.Ssa.ii_uses
        in
        match oracle c target lookup with
        | Some cst -> Symbolic.const cst
        | None -> Symbolic.unknown)))
  | Cfg.Iread_scalar _ | Cfg.Iread_elem _ | Cfg.Iastore _ | Cfg.Iprint _ ->
    Symbolic.unknown

(** Symbolic value of a pure expression occurring in instruction
    [(block, instr)]; variable uses resolve through that instruction's SSA
    use table. *)
and sym_of_expr t ~block ~instr (e : Prog.expr) : Symbolic.t =
  sym_of_expr_with t (fun name -> Ssa.use_at t.ssa block instr name) e

and sym_of_expr_with t resolve (e : Prog.expr) : Symbolic.t =
  if e.ety <> Prog.Tint then Symbolic.unknown
  else
    match e.edesc with
    | Prog.Cint c -> Symbolic.const c
    | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ -> Symbolic.unknown
    | Prog.Evar v ->
      if Prog.is_array v then Symbolic.unknown
      else (
        match resolve v.vname with
        | Some n -> sym_of_name t n
        | None -> Symbolic.unknown)
    | Prog.Earr _ -> Symbolic.unknown (* array elements are ⊥ (paper §4) *)
    | Prog.Ecall _ -> Symbolic.unknown (* calls are hoisted before SSA *)
    | Prog.Eintr (intr, args) -> (
      (* intrinsics fold over constant arguments only *)
      let arg_syms = List.map (sym_of_expr_with t resolve) args in
      match
        List.fold_right
          (fun s acc ->
            match (Symbolic.const_value s, acc) with
            | Some c, Some cs -> Some (c :: cs)
            | _ -> None)
          arg_syms (Some [])
      with
      | Some consts -> (
        match Symbolic.fold_intrinsic intr consts with
        | Some v -> Symbolic.const v
        | None -> Symbolic.unknown)
      | None -> Symbolic.unknown)
    | Prog.Eun (Ast.Neg, a) -> Symbolic.neg (sym_of_expr_with t resolve a)
    | Prog.Eun (Ast.Not, _) -> Symbolic.unknown
    | Prog.Ebin (op, a, b) -> (
      match Symbolic.op_of_ast op with
      | Some sop ->
        Symbolic.bin sop
          (sym_of_expr_with t resolve a)
          (sym_of_expr_with t resolve b)
      | None -> Symbolic.unknown)

(** Symbolic value of an expression used by a block's terminator. *)
let sym_of_term_expr t ~block (e : Prog.expr) : Symbolic.t =
  sym_of_expr_with t
    (fun name -> List.assoc_opt name t.ssa.Ssa.term_uses.(block))
    e

(** Symbolic value of variable [name] at a procedure exit block. *)
let sym_at_exit t ~block name : Symbolic.t =
  match List.assoc_opt block (Ssa.exits t.ssa) with
  | None -> Symbolic.unknown
  | Some snapshot -> (
    match List.assoc_opt name snapshot with
    | Some n -> sym_of_name t n
    | None -> Symbolic.unknown)
