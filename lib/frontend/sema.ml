(** Semantic analysis: turns a raw {!Ast.program} into a resolved {!Prog.t}.

    Responsibilities:
    - build per-unit symbol tables from declarations, with FORTRAN implicit
      typing for undeclared names (i..n → integer, otherwise real);
    - lay out common blocks positionally and check cross-unit consistency;
    - fold [parameter] named constants into literals;
    - disambiguate [Eapply] into array references vs. function calls;
    - check arity, argument compatibility, label targets, loop variables;
    - assign program-wide unique ids to statements and expressions. *)

open Ast

type sym =
  | Svar of Prog.var
  | Sconst of Prog.ty * float  (** folded [parameter] constant *)

type unit_env = {
  mutable table : (string * sym) list;  (** newest first *)
  mutable locals_order : Prog.var list;  (** discovery order, reversed *)
  uname : string;
  ukind : Ast.unit_kind;
}

type ctx = {
  mutable next_id : int;
  sigs : (string, Ast.unit_kind * Prog.var list * Prog.ty option) Hashtbl.t;
      (** unit name → kind, formals, result type *)
  commons : (string, Prog.global list) Hashtbl.t;
      (** block name → canonical member layout *)
  diags : Ipcp_support.Diagnostics.t option;
      (** when set, semantic errors accumulate here and resolution
          recovers at statement / unit granularity *)
}

let recovering ctx = ctx.diags <> None

let sema_report ctx l m =
  match ctx.diags with
  | Some diags -> Loc.report diags ~code:"E-SEMA" l m
  | None -> ()

let fresh ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  id

let implicit_ty = Implicit.ty_of_name

let lookup env name = List.assoc_opt name env.table

let add_sym env name sym = env.table <- (name, sym) :: env.table

(* ------------------------------------------------------------------ *)
(* Constant folding for parameter declarations and array bounds.       *)

let rec fold_const env (e : Ast.expr) : Prog.ty * float =
  match e.edesc with
  | Eint n -> (Prog.Tint, float_of_int n)
  | Ereal f -> (Prog.Treal, f)
  | Ebool _ | Estring _ ->
    Loc.error e.eloc "parameter constants must be numeric"
  | Ename n -> (
    match lookup env n with
    | Some (Sconst (ty, v)) -> (ty, v)
    | Some (Svar _) ->
      Loc.error e.eloc "%s is a variable; parameter values must be constant" n
    | None -> Loc.error e.eloc "unknown name %s in constant expression" n)
  | Eapply _ ->
    Loc.error e.eloc "calls are not allowed in constant expressions"
  | Eunop (Neg, a) ->
    let ty, v = fold_const env a in
    (ty, -.v)
  | Eunop (Not, _) ->
    Loc.error e.eloc "logical operators are not allowed in constant expressions"
  | Ebinop (op, a, b) ->
    let ta, va = fold_const env a in
    let tb, vb = fold_const env b in
    let ty =
      match (ta, tb) with Prog.Tint, Prog.Tint -> Prog.Tint | _ -> Prog.Treal
    in
    let as_int v = int_of_float v in
    let v =
      match op with
      | Add -> va +. vb
      | Sub -> va -. vb
      | Mul -> va *. vb
      | Div ->
        if ty = Prog.Tint then begin
          if as_int vb = 0 then Loc.error e.eloc "division by zero in constant";
          float_of_int (as_int va / as_int vb)
        end
        else begin
          if vb = 0.0 then Loc.error e.eloc "division by zero in constant";
          va /. vb
        end
      | Pow ->
        if ty = Prog.Tint then
          float_of_int
            (let rec pow b n = if n <= 0 then 1 else b * pow b (n - 1) in
             pow (as_int va) (as_int vb))
        else va ** vb
      | Lt | Le | Gt | Ge | Eq | Ne | And | Or ->
        Loc.error e.eloc "only arithmetic is allowed in constant expressions"
    in
    (ty, v)

(* ------------------------------------------------------------------ *)
(* Declaration processing.                                             *)

(* First pass over one unit's declarations: record explicit types, commons
   and parameters.  Returns (explicit types, common memberships, params). *)
let scan_decls (u : Ast.punit) =
  let types : (string, Prog.ty * int list * Loc.t) Hashtbl.t = Hashtbl.create 16 in
  let commons : (string * string list * Loc.t) list ref = ref [] in
  let params : (string * Ast.expr * Loc.t) list ref = ref [] in
  List.iter
    (fun d ->
      match d with
      | Dtype (ty, items) ->
        List.iter
          (fun (name, dims) ->
            if Hashtbl.mem types name then
              Loc.error u.uloc "duplicate declaration of %s in %s" name u.uname;
            Hashtbl.replace types name (ty, dims, u.uloc))
          items
      | Dcommon (block, members) -> commons := (block, members, u.uloc) :: !commons
      | Dparameter ps ->
        List.iter (fun (n, e) -> params := (n, e, u.uloc) :: !params) ps
      | Ddata _ -> () (* resolved later, once the full table exists *))
    u.udecls;
  (types, List.rev !commons, List.rev !params)

(* Establish or check the canonical layout of a common block. *)
let register_common ctx ~unit_name loc block (members : (string * Prog.ty * int list) list) :
    Prog.global list =
  match Hashtbl.find_opt ctx.commons block with
  | None ->
    let layout =
      List.mapi
        (fun i (name, ty, dims) ->
          { Prog.gblock = block; gslot = i; gname = name; gty = ty; gdims = dims })
        members
    in
    Hashtbl.replace ctx.commons block layout;
    layout
  | Some layout ->
    if List.length layout <> List.length members then
      Loc.error loc "common /%s/ has %d members in %s but %d elsewhere" block
        (List.length members) unit_name (List.length layout);
    List.iter2
      (fun (g : Prog.global) (name, ty, dims) ->
        if g.gty <> ty then
          Loc.error loc "common /%s/ member %d (%s) has type %a in %s but %a elsewhere"
            block g.gslot name Ast.pp_ty ty unit_name Ast.pp_ty g.gty;
        if g.gdims <> dims then
          Loc.error loc "common /%s/ member %d (%s) has mismatched dimensions in %s"
            block g.gslot name unit_name)
      layout members;
    layout

(* Build the symbol environment for one unit; also registers its signature. *)
let build_env ctx (u : Ast.punit) : unit_env * (string * Prog.global) list =
  let types, commons, params = scan_decls u in
  let env = { table = []; locals_order = []; uname = u.uname; ukind = u.ukind } in
  (* Parameter constants first: they may be used in later array bounds. *)
  List.iter
    (fun (n, e, loc) ->
      if lookup env n <> None then Loc.error loc "duplicate parameter %s" n;
      let ty, v = fold_const env e in
      add_sym env n (Sconst (ty, v)))
    params;
  let declared_ty name =
    match Hashtbl.find_opt types name with
    | Some (ty, dims, _) -> (ty, dims)
    | None -> (implicit_ty name, [])
  in
  (* Common blocks: bind local alias names to global slots. *)
  let unit_globals = ref [] in
  List.iter
    (fun (block, members, loc) ->
      let member_info =
        List.map
          (fun name ->
            if List.mem_assoc name env.table then
              Loc.error loc "common member %s conflicts with a parameter" name;
            let ty, dims = declared_ty name in
            (name, ty, dims))
          members
      in
      let layout = register_common ctx ~unit_name:u.uname loc block member_info in
      List.iter2
        (fun name (g : Prog.global) ->
          if List.mem_assoc name env.table then
            Loc.error loc "duplicate declaration of common member %s" name;
          let ty, dims = declared_ty name in
          add_sym env name
            (Svar { Prog.vname = name; vty = ty; vdims = dims; vkind = Kglobal g });
          unit_globals := (name, g) :: !unit_globals)
        members layout)
    commons;
  (* Formals. *)
  List.iteri
    (fun i name ->
      if List.mem_assoc name env.table then
        Loc.error u.uloc "formal parameter %s of %s conflicts with another declaration"
          name u.uname;
      let ty, dims = declared_ty name in
      add_sym env name
        (Svar { Prog.vname = name; vty = ty; vdims = dims; vkind = Kformal i }))
    u.uformals;
  (* Function result variable: the unit's own name. *)
  if u.ukind = Ufunction then begin
    let ty, dims = declared_ty u.uname in
    if dims <> [] then Loc.error u.uloc "function %s cannot be an array" u.uname;
    add_sym env u.uname
      (Svar { Prog.vname = u.uname; vty = ty; vdims = []; vkind = Kresult })
  end;
  (* Remaining explicitly-typed names become locals now (so that arrays are
     known before body resolution).  Iterate declarations in source order so
     [plocals] is deterministic. *)
  List.iter
    (fun d ->
      match d with
      | Dtype (_, items) ->
        List.iter
          (fun (name, _) ->
            match Hashtbl.find_opt types name with
            | Some (ty, dims, _) when not (List.mem_assoc name env.table) ->
              let v = { Prog.vname = name; vty = ty; vdims = dims; vkind = Klocal } in
              add_sym env name (Svar v);
              env.locals_order <- v :: env.locals_order
            | _ -> ())
          items
      | Dcommon _ | Dparameter _ | Ddata _ -> ())
    u.udecls;
  (env, List.rev !unit_globals)

(* ------------------------------------------------------------------ *)
(* Expression resolution.                                              *)

(* Look a name up, creating an implicitly-typed local on first use. *)
let variable env loc name : Prog.var =
  match lookup env name with
  | Some (Svar v) -> v
  | Some (Sconst _) ->
    Loc.error loc "%s is a named constant, not a variable" name
  | None ->
    let v =
      { Prog.vname = name; vty = implicit_ty name; vdims = []; vkind = Klocal }
    in
    add_sym env name (Svar v);
    env.locals_order <- v :: env.locals_order;
    v

let is_arith = function Prog.Tint | Prog.Treal -> true | Prog.Tlogical -> false

let rec resolve_expr ctx env (e : Ast.expr) : Prog.expr =
  let mk ety edesc = { Prog.eid = fresh ctx; eloc = e.eloc; ety; edesc } in
  match e.edesc with
  | Eint n -> mk Prog.Tint (Prog.Cint n)
  | Ereal f -> mk Prog.Treal (Prog.Creal f)
  | Ebool b -> mk Prog.Tlogical (Prog.Cbool b)
  | Estring s -> mk Prog.Tint (Prog.Cstr s)
  | Ename n -> (
    match lookup env n with
    | Some (Sconst (Prog.Tint, v)) -> mk Prog.Tint (Prog.Cint (int_of_float v))
    | Some (Sconst (ty, v)) -> mk ty (Prog.Creal v)
    | Some (Svar v) ->
      if Prog.is_array v then
        (* bare array name in an expression is only valid as a call actual;
           the caller (resolve_args) intercepts that case first. *)
        Loc.error e.eloc "array %s used without subscripts" n
      else mk v.vty (Prog.Evar v)
    | None ->
      (* Could be a zero-argument function? MiniFort requires parens for
         calls, so this is a variable. *)
      let v = variable env e.eloc n in
      mk v.vty (Prog.Evar v))
  | Eapply (name, args) -> (
    match lookup env name with
    | Some (Svar v) when Prog.is_array v ->
      let idx = List.map (resolve_expr ctx env) args in
      if List.length idx <> List.length v.vdims then
        Loc.error e.eloc "array %s has %d dimension(s) but %d subscript(s) given"
          name (List.length v.vdims) (List.length idx);
      List.iter
        (fun (i : Prog.expr) ->
          if i.ety <> Prog.Tint then
            Loc.error i.eloc "array subscripts must be integers")
        idx;
      mk v.vty (Prog.Earr (v, idx))
    | Some (Svar v) when v.vkind = Prog.Kresult && name = env.uname ->
      (* recursive call to the enclosing function *)
      resolve_call_expr ctx env e name args
    | Some (Svar _) ->
      Loc.error e.eloc "%s is a scalar variable, not an array or function" name
    | Some (Sconst _) -> Loc.error e.eloc "%s is a named constant" name
    | None -> resolve_call_expr ctx env e name args)
  | Eunop (Neg, a) ->
    let a = resolve_expr ctx env a in
    if not (is_arith a.ety) then
      Loc.error e.eloc "unary minus needs a numeric operand";
    mk a.ety (Prog.Eun (Neg, a))
  | Eunop (Not, a) ->
    let a = resolve_expr ctx env a in
    if a.ety <> Prog.Tlogical then Loc.error e.eloc ".not. needs a logical operand";
    mk Prog.Tlogical (Prog.Eun (Not, a))
  | Ebinop (op, a, b) ->
    let a = resolve_expr ctx env a in
    let b = resolve_expr ctx env b in
    if Ast.is_arith op then begin
      if not (is_arith a.ety && is_arith b.ety) then
        Loc.error e.eloc "arithmetic operator applied to non-numeric operand";
      let ty =
        match (a.ety, b.ety) with
        | Prog.Tint, Prog.Tint -> Prog.Tint
        | _ -> Prog.Treal
      in
      mk ty (Prog.Ebin (op, a, b))
    end
    else if Ast.is_relational op then begin
      if not (is_arith a.ety && is_arith b.ety) then
        Loc.error e.eloc "comparison applied to non-numeric operand";
      mk Prog.Tlogical (Prog.Ebin (op, a, b))
    end
    else begin
      if not (a.ety = Prog.Tlogical && b.ety = Prog.Tlogical) then
        Loc.error e.eloc "logical operator applied to non-logical operand";
      mk Prog.Tlogical (Prog.Ebin (op, a, b))
    end

and resolve_call_expr ctx env (e : Ast.expr) name args : Prog.expr =
  match Hashtbl.find_opt ctx.sigs name with
  | None -> (
    match Prog.intrinsic_of_name name with
    | Some intr -> resolve_intrinsic ctx env e intr args
    | None -> Loc.error e.eloc "unknown function or array %s" name)
  | Some (Usubroutine, _, _) ->
    Loc.error e.eloc "%s is a subroutine; use 'call %s(...)'" name name
  | Some (Uprogram, _, _) -> Loc.error e.eloc "cannot call the main program"
  | Some (Ufunction, formals, result_ty) ->
    let args = resolve_args ctx env e.eloc name formals args in
    let ty = Option.value result_ty ~default:(implicit_ty name) in
    { Prog.eid = fresh ctx; eloc = e.eloc; ety = ty; edesc = Prog.Ecall (name, args) }

(* FORTRAN generic intrinsics: abs/1, min/2, max/2 (numeric, same type),
   mod/2 (integers). *)
and resolve_intrinsic ctx env (e : Ast.expr) intr args : Prog.expr =
  let name = Prog.intrinsic_name intr in
  let args = List.map (resolve_expr ctx env) args in
  let arity =
    match intr with Prog.Iabs -> 1 | Prog.Imin | Prog.Imax | Prog.Imod -> 2
  in
  if List.length args <> arity then
    Loc.error e.eloc "intrinsic %s expects %d argument(s), got %d" name arity
      (List.length args);
  List.iter
    (fun (a : Prog.expr) ->
      if not (is_arith a.ety) then
        Loc.error a.eloc "intrinsic %s needs numeric arguments" name)
    args;
  let ty =
    match (intr, args) with
    | Prog.Iabs, [ a ] -> a.ety
    | (Prog.Imin | Prog.Imax), [ a; b ] ->
      if a.ety <> b.ety then
        Loc.error e.eloc "intrinsic %s needs arguments of the same type" name;
      a.ety
    | Prog.Imod, [ a; b ] ->
      if a.ety <> Prog.Tint || b.ety <> Prog.Tint then
        Loc.error e.eloc "intrinsic mod needs integer arguments";
      Prog.Tint
    | _ -> assert false
  in
  { Prog.eid = fresh ctx; eloc = e.eloc; ety = ty; edesc = Prog.Eintr (intr, args) }

(* Resolve actual arguments against the callee's formal list: whole arrays
   may be passed by bare name, and types must match positionally. *)
and resolve_args ctx env loc callee (formals : Prog.var list) (args : Ast.expr list) :
    Prog.expr list =
  if List.length args <> List.length formals then
    Loc.error loc "%s expects %d argument(s) but %d given" callee
      (List.length formals) (List.length args);
  List.map2
    (fun (formal : Prog.var) (arg : Ast.expr) ->
      let resolved =
        match arg.edesc with
        | Ename n -> (
          match lookup env n with
          | Some (Svar v) when Prog.is_array v ->
            (* whole-array actual *)
            { Prog.eid = fresh ctx; eloc = arg.eloc; ety = v.vty; edesc = Prog.Evar v }
          | _ -> resolve_expr ctx env arg)
        | _ -> resolve_expr ctx env arg
      in
      let actual_is_array =
        match resolved.edesc with Prog.Evar v -> Prog.is_array v | _ -> false
      in
      if Prog.is_array formal then begin
        let ok =
          actual_is_array
          || match resolved.edesc with Prog.Earr _ -> true | _ -> false
        in
        if not ok then
          Loc.error resolved.eloc
            "argument %s of %s expects an array" formal.vname callee
      end
      else if actual_is_array then
        Loc.error resolved.eloc "argument %s of %s expects a scalar" formal.vname
          callee;
      if resolved.ety <> formal.vty && not (match resolved.edesc with Prog.Cstr _ -> true | _ -> false)
      then
        Loc.error resolved.eloc
          "argument %s of %s has type %a but the actual has type %a" formal.vname
          callee Ast.pp_ty formal.vty Ast.pp_ty resolved.ety;
      resolved)
    formals args

(* ------------------------------------------------------------------ *)
(* Statement resolution.                                                *)

let resolve_lhs ctx env (l : Ast.lhs) : Prog.lhs =
  let v = variable env l.lloc l.lname in
  match l.lindex with
  | [] ->
    if Prog.is_array v then
      Loc.error l.lloc "array %s assigned without subscripts" l.lname;
    Prog.Lvar v
  | idx ->
    if not (Prog.is_array v) then
      Loc.error l.lloc "%s is not an array" l.lname;
    if List.length idx <> List.length v.vdims then
      Loc.error l.lloc "array %s has %d dimension(s) but %d subscript(s) given"
        l.lname (List.length v.vdims) (List.length idx);
    let idx = List.map (resolve_expr ctx env) idx in
    List.iter
      (fun (i : Prog.expr) ->
        if i.ety <> Prog.Tint then
          Loc.error i.eloc "array subscripts must be integers")
      idx;
    Prog.Larr (v, idx)

(* [active] tracks the do-variables of enclosing loops: FORTRAN 77 forbids
   redefining a do-variable while its loop is active (§11.10.5), and the
   whole pipeline (lowering, SCCP, the interpreter) relies on that rule. *)
let rec resolve_stmts ctx env labels active stmts =
  (* In recovery mode a statement that fails to resolve is dropped and
     reported; its siblings still resolve, so one bad statement cannot
     hide the rest of the unit's problems. *)
  List.filter_map
    (fun s ->
      match resolve_stmt ctx env labels active s with
      | s' -> Some s'
      | exception Loc.Error (l, m) when recovering ctx ->
        sema_report ctx l m;
        None)
    stmts

and resolve_stmt ctx env labels active (s : Ast.stmt) : Prog.stmt =
  let mk sdesc = { Prog.sid = fresh ctx; sloc = s.sloc; slabel = s.label; sdesc } in
  let check_not_active loc name =
    if List.mem name active then
      Loc.error loc
        "%s is the variable of an enclosing do loop and cannot be redefined"
        name
  in
  match s.sdesc with
  | Sassign (lhs, e) ->
    (match lhs.lindex with
    | [] -> check_not_active lhs.lloc lhs.lname
    | _ -> ());
    let lhs = resolve_lhs ctx env lhs in
    let e = resolve_expr ctx env e in
    let lty = match lhs with Prog.Lvar v | Prog.Larr (v, _) -> v.vty in
    (match (lty, e.ety) with
    | Prog.Tlogical, Prog.Tlogical -> ()
    | Prog.Tlogical, _ | _, Prog.Tlogical ->
      Loc.error s.sloc "cannot mix logical and numeric in assignment"
    | _ -> ());
    mk (Prog.Sassign (lhs, e))
  | Scall (name, args) -> (
    match Hashtbl.find_opt ctx.sigs name with
    | None -> Loc.error s.sloc "unknown subroutine %s" name
    | Some (Ufunction, _, _) ->
      Loc.error s.sloc "%s is a function; call it inside an expression" name
    | Some (Uprogram, _, _) -> Loc.error s.sloc "cannot call the main program"
    | Some (Usubroutine, formals, _) ->
      let args = resolve_args ctx env s.sloc name formals args in
      mk (Prog.Scall (name, args)))
  | Sif (arms, els) ->
    let arms =
      List.map
        (fun (c, body) ->
          let c = resolve_expr ctx env c in
          if c.ety <> Prog.Tlogical then
            Loc.error c.eloc "if condition must be logical";
          (c, resolve_stmts ctx env labels active body))
        arms
    in
    mk (Prog.Sif (arms, resolve_stmts ctx env labels active els))
  | Sdo (vname, lo, hi, step, body) ->
    check_not_active s.sloc vname;
    let v = variable env s.sloc vname in
    if v.vty <> Prog.Tint || Prog.is_array v then
      Loc.error s.sloc "do-loop variable %s must be an integer scalar" vname;
    let lo = resolve_expr ctx env lo in
    let hi = resolve_expr ctx env hi in
    let step = Option.map (resolve_expr ctx env) step in
    List.iter
      (fun (e : Prog.expr) ->
        if e.ety <> Prog.Tint then
          Loc.error e.eloc "do-loop bounds must be integers")
      (lo :: hi :: Option.to_list step);
    mk (Prog.Sdo (v, lo, hi, step, resolve_stmts ctx env labels (vname :: active) body))
  | Sdowhile (c, body) ->
    let c = resolve_expr ctx env c in
    if c.ety <> Prog.Tlogical then
      Loc.error c.eloc "do while condition must be logical";
    mk (Prog.Sdowhile (c, resolve_stmts ctx env labels active body))
  | Sgoto n ->
    if not (Hashtbl.mem labels n) then
      Loc.error s.sloc "goto target %d is not a label in this unit" n;
    mk (Prog.Sgoto n)
  | Scontinue -> mk Prog.Scontinue
  | Sreturn -> mk Prog.Sreturn
  | Sstop -> mk Prog.Sstop
  | Sprint args -> mk (Prog.Sprint (List.map (resolve_expr ctx env) args))
  | Sread ls ->
    List.iter
      (fun (l : Ast.lhs) ->
        match l.lindex with
        | [] -> check_not_active l.lloc l.lname
        | _ -> ())
      ls;
    mk (Prog.Sread (List.map (resolve_lhs ctx env) ls))

(* ------------------------------------------------------------------ *)
(* Data statement resolution.                                          *)

(* Resolve the [data] declarations of one unit.  FORTRAN 77 restricts
   which storage a data statement may initialize; MiniFort allows common
   globals anywhere and locals of the main program (locals of other units
   would need SAVE semantics).  [seen] detects double initialization
   program-wide. *)
let resolve_data env (u : Ast.punit) (seen : (string, unit) Hashtbl.t) :
    Prog.data_init list =
  let resolve_item (name, (values : Ast.data_value list)) : Prog.data_init =
    let v =
      match lookup env name with
      | Some (Svar v) -> v
      | Some (Sconst _) ->
        Loc.error u.uloc "%s is a named constant and cannot appear in data" name
      | None ->
        (* like any other first use, an undeclared name in data becomes an
           implicitly-typed local *)
        variable env u.uloc name
    in
    (match v.vkind with
    | Prog.Kglobal _ -> ()
    | Prog.Klocal when u.ukind = Uprogram -> ()
    | Prog.Klocal ->
      Loc.error u.uloc
        "data for local %s outside the main program would need save semantics"
        name
    | Prog.Kformal _ ->
      Loc.error u.uloc "formal parameter %s cannot appear in data" name
    | Prog.Kresult ->
      Loc.error u.uloc "function result %s cannot appear in data" name);
    let storage_key =
      match v.vkind with
      | Prog.Kglobal g -> "g:" ^ Prog.global_key g
      | _ -> Printf.sprintf "l:%s:%s" u.uname name
    in
    if Hashtbl.mem seen storage_key then
      Loc.error u.uloc "%s is initialized by more than one data statement" name;
    Hashtbl.replace seen storage_key ();
    let convert (lit : Ast.data_lit) : Prog.data_const =
      match (v.vty, lit) with
      | Prog.Tint, Ast.Dlit_int n -> Prog.Dc_int n
      | Prog.Treal, Ast.Dlit_real f -> Prog.Dc_real f
      | Prog.Treal, Ast.Dlit_int n -> Prog.Dc_real (float_of_int n)
      | Prog.Tlogical, Ast.Dlit_bool b -> Prog.Dc_bool b
      | Prog.Tint, (Ast.Dlit_real _ | Ast.Dlit_bool _) ->
        Loc.error u.uloc "data value for integer %s must be an integer" name
      | Prog.Treal, Ast.Dlit_bool _ ->
        Loc.error u.uloc "data value for real %s must be numeric" name
      | Prog.Tlogical, (Ast.Dlit_int _ | Ast.Dlit_real _) ->
        Loc.error u.uloc "data value for logical %s must be a logical" name
    in
    let resolved =
      List.map
        (fun (dv : Ast.data_value) ->
          if dv.dv_repeat < 1 then
            Loc.error u.uloc "data repeat count must be positive for %s" name;
          (dv.dv_repeat, convert dv.dv_lit))
        values
    in
    let total = List.fold_left (fun acc (r, _) -> acc + r) 0 resolved in
    let expected = List.fold_left ( * ) 1 v.vdims in
    if total <> expected then
      Loc.error u.uloc "data for %s supplies %d value(s) but needs %d" name
        total expected;
    { Prog.di_var = v; di_values = resolved }
  in
  List.concat_map
    (fun d ->
      match d with
      | Ddata items -> List.map resolve_item items
      | Dtype _ | Dcommon _ | Dparameter _ -> [])
    u.udecls

(* Collect all labels in a unit body, checking uniqueness. *)
let collect_labels (u : Ast.punit) =
  let labels = Hashtbl.create 8 in
  let rec walk stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        (match s.label with
        | Some n ->
          if Hashtbl.mem labels n then
            Loc.error s.sloc "duplicate label %d in %s" n u.uname;
          Hashtbl.replace labels n ()
        | None -> ());
        match s.sdesc with
        | Sif (arms, els) ->
          List.iter (fun (_, b) -> walk b) arms;
          walk els
        | Sdo (_, _, _, _, b) | Sdowhile (_, b) -> walk b
        | Sassign _ | Scall _ | Sgoto _ | Scontinue | Sreturn | Sstop | Sprint _
        | Sread _ ->
          ())
      stmts
  in
  walk u.ubody;
  labels

(* ------------------------------------------------------------------ *)
(* Whole-program resolution.                                            *)

let resolve_with ctx (units : Ast.program) : Prog.t =
  (* Pass 1: environments + signatures.  In recovery mode a unit whose
     declarations fail to resolve is dropped (callers of its procedures
     will report unknown-name errors, which is accurate: the unit has no
     usable signature). *)
  let envs =
    List.filter_map
      (fun (u : Ast.punit) ->
        match
          if Hashtbl.mem ctx.sigs u.uname then
            Loc.error u.uloc "duplicate program unit %s" u.uname;
          let env, unit_globals = build_env ctx u in
          let formals =
            List.map
              (fun name ->
                match lookup env name with
                | Some (Svar v) -> v
                | _ -> assert false)
              u.uformals
          in
          let result_ty =
            if u.ukind = Ufunction then
              match lookup env u.uname with
              | Some (Svar v) -> Some v.vty
              | _ -> Some (implicit_ty u.uname)
            else None
          in
          Hashtbl.replace ctx.sigs u.uname (u.ukind, formals, result_ty);
          (u, env, unit_globals, formals, result_ty)
        with
        | entry -> Some entry
        | exception Loc.Error (l, m) when recovering ctx ->
          sema_report ctx l m;
          None)
      units
  in
  (* Exactly one main program. *)
  let mains =
    List.filter (fun ((u : Ast.punit), _, _, _, _) -> u.ukind = Uprogram) envs
  in
  let main_name =
    match mains with
    | [ (u, _, _, _, _) ] -> u.uname
    | [] ->
      if recovering ctx then begin
        sema_report ctx Loc.dummy "no program unit found";
        ""
      end
      else Loc.error Loc.dummy "no program unit found"
    | (u, _, _, _, _) :: _ :: _ ->
      if recovering ctx then begin
        sema_report ctx u.uloc "more than one program unit found";
        u.uname
      end
      else Loc.error u.uloc "more than one program unit found"
  in
  (* Pass 2: bodies and data statements. *)
  let data_seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let procs =
    List.map
      (fun ((u : Ast.punit), env, unit_globals, formals, result_ty) ->
        let labels =
          try collect_labels u
          with Loc.Error (l, m) when recovering ctx ->
            sema_report ctx l m;
            Hashtbl.create 1
        in
        let pdata =
          try resolve_data env u data_seen
          with Loc.Error (l, m) when recovering ctx ->
            sema_report ctx l m;
            []
        in
        let body = resolve_stmts ctx env labels [] u.ubody in
        let result =
          match (u.ukind, result_ty) with
          | Ufunction, Some ty ->
            Some { Prog.vname = u.uname; vty = ty; vdims = []; vkind = Kresult }
          | _ -> None
        in
        let kind =
          match u.ukind with
          | Uprogram -> Prog.Pmain
          | Usubroutine -> Prog.Psubroutine
          | Ufunction -> Prog.Pfunction
        in
        {
          Prog.pname = u.uname;
          pkind = kind;
          pformals = formals;
          presult = result;
          plocals = List.rev env.locals_order;
          pglobals = unit_globals;
          pdata;
          pbody = body;
          ploc = u.uloc;
        })
      envs
  in
  { Prog.procs; main = main_name }

let resolve (units : Ast.program) : Prog.t =
  resolve_with
    { next_id = 0; sigs = Hashtbl.create 16; commons = Hashtbl.create 8;
      diags = None }
    units

(** Recovery-mode resolution: semantic errors accumulate in [diags]
    (code [E-SEMA]) instead of aborting; failing statements and units
    are dropped so their siblings still resolve.  Returns [None] only
    when resolution cannot produce a program shell at all. *)
let resolve_collect diags (units : Ast.program) : Prog.t option =
  let ctx =
    { next_id = 0; sigs = Hashtbl.create 16; commons = Hashtbl.create 8;
      diags = Some diags }
  in
  match resolve_with ctx units with
  | prog -> Some prog
  | exception Loc.Error (l, m) ->
    Loc.report diags ~code:"E-SEMA" l m;
    None

(** Convenience: parse and resolve a source string in one step. *)
let parse_and_resolve ?(file = "<input>") src : Prog.t =
  Ipcp_telemetry.Telemetry.span "frontend" (fun () ->
      let ast =
        Ipcp_telemetry.Telemetry.span "parse" (fun () ->
            Parser.parse_program ~file src)
      in
      Ipcp_telemetry.Telemetry.span "sema" (fun () -> resolve ast))

(** Front door for batch diagnosis: parse and resolve in recovery mode.
    [Ok prog] means a clean frontend run; [Error diags] carries every
    lexical, syntax and semantic problem found in one pass, in that
    order. *)
let check ?(file = "<input>") src : (Prog.t, Ipcp_support.Diagnostics.t) result
    =
  Ipcp_telemetry.Telemetry.span "frontend" (fun () ->
      let diags = Ipcp_support.Diagnostics.create () in
      let ast =
        Ipcp_telemetry.Telemetry.span "parse" (fun () ->
            Parser.parse_program ~file ~recover:diags src)
      in
      let prog =
        Ipcp_telemetry.Telemetry.span "sema" (fun () ->
            resolve_collect diags ast)
      in
      match prog with
      | Some p when Ipcp_support.Diagnostics.error_count diags = 0 -> Ok p
      | _ -> Error diags)
