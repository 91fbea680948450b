(** Printing resolved MiniFort ({!Prog.t}) back to parseable source: the
    one printer, used for [ipcp analyze --substitute] and for the
    metamorphic transforms.

    Every local is declared, in [plocals] order, so printing, parsing
    and resolving gives back procedures {!Prog.equal_proc} to the
    printed ones, and [main] unchanged: [Sema] makes explicitly typed
    names the first locals, in declaration order.  The exception is a
    literal that only constant folding makes (of a [parameter], or by
    substitution) and the lexer cannot read back: a negative number
    prints as a negation, a non-finite real as a name. *)

open Ast

let op_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Lt -> ".lt."
  | Le -> ".le."
  | Gt -> ".gt."
  | Ge -> ".ge."
  | Eq -> ".eq."
  | Ne -> ".ne."
  | And -> ".and."
  | Or -> ".or."

(* Precedence: higher binds tighter. *)
let prec = function
  | Or -> 1
  | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6
  | Pow -> 8

let prec_neg = 7
let prec_not = 3
let prec_atom = 9

(* Print a float so that it re-lexes as a REAL token (always with a point). *)
let real_string f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
     (* nan/inf *)
  then s
  else s ^ ".0"

let indent ppf n = Fmt.string ppf (String.make n ' ')

let label_prefix ppf = function
  | Some n -> Fmt.pf ppf "%d " n
  | None -> ()

let rec expr_prec ppf (p, (e : Prog.expr)) =
  let self = prec_of e in
  let wrap body = if self < p then Fmt.pf ppf "(%t)" body else body ppf in
  match e.edesc with
  | Cint n -> if n < 0 then wrap (fun ppf -> Fmt.pf ppf "-%d" (-n)) else Fmt.int ppf n
  | Creal f -> Fmt.string ppf (real_string f)
  | Cbool true -> Fmt.string ppf ".true."
  | Cbool false -> Fmt.string ppf ".false."
  | Cstr s -> Fmt.pf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Evar v -> Fmt.string ppf v.vname
  | Earr (v, idx) ->
    Fmt.pf ppf "%s(%a)" v.vname (Fmt.list ~sep:(Fmt.any ", ") expr_top) idx
  | Ecall (f, args) ->
    Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") expr_top) args
  | Eintr (intr, args) ->
    Fmt.pf ppf "%s(%a)" (Prog.intrinsic_name intr)
      (Fmt.list ~sep:(Fmt.any ", ") expr_top)
      args
  | Eun (Neg, a) -> wrap (fun ppf -> Fmt.pf ppf "-%a" expr_prec (prec_neg + 1, a))
  | Eun (Not, a) -> wrap (fun ppf -> Fmt.pf ppf ".not. %a" expr_prec (prec_not, a))
  | Ebin (op, a, b) ->
    let pr = prec op in
    let left = if op = Pow then pr + 1 else pr in
    let right =
      match op with
      | Sub | Div -> pr + 1 (* left-assoc, non-commutative *)
      | Pow -> pr - 1 (* right-assoc; also admits unary minus on the right *)
      | Lt | Le | Gt | Ge | Eq | Ne -> pr + 1 (* non-assoc *)
      | Add | Mul | And | Or -> pr
    in
    wrap (fun ppf ->
        Fmt.pf ppf "%a %s %a" expr_prec (left, a) (op_string op)
          expr_prec (right, b))

and prec_of (e : Prog.expr) =
  match e.edesc with
  | Cint n when n < 0 -> prec_neg
  | Cint _ | Creal _ | Cbool _ | Cstr _ | Evar _ | Earr _ | Ecall _ | Eintr _
    ->
    prec_atom
  | Eun (Neg, _) -> prec_neg
  | Eun (Not, _) -> prec_not
  | Ebin (op, _, _) -> prec op

and expr_top ppf e = expr_prec ppf (0, e)

let pp_expr = expr_top

let lhs ppf = function
  | Prog.Lvar v -> Fmt.string ppf v.Prog.vname
  | Prog.Larr (v, idx) ->
    Fmt.pf ppf "%s(%a)" v.Prog.vname (Fmt.list ~sep:(Fmt.any ", ") expr_top) idx

let rec stmt ind ppf (s : Prog.stmt) =
  indent ppf ind;
  label_prefix ppf s.slabel;
  match s.sdesc with
  | Sassign (l, e) -> Fmt.pf ppf "%a = %a@." lhs l expr_top e
  | Scall (f, []) -> Fmt.pf ppf "call %s@." f
  | Scall (f, args) ->
    Fmt.pf ppf "call %s(%a)@." f (Fmt.list ~sep:(Fmt.any ", ") expr_top) args
  | Sif (arms, els) ->
    (match arms with
    | [] ->
      (* an if with no arms can only arise from DCE; print its else inline *)
      Fmt.pf ppf "continue@.";
      List.iter (stmt ind ppf) els
    | (c0, b0) :: rest ->
      Fmt.pf ppf "if (%a) then@." expr_top c0;
      List.iter (stmt (ind + 2) ppf) b0;
      List.iter
        (fun (c, b) ->
          Fmt.pf ppf "%aelse if (%a) then@." indent ind expr_top c;
          List.iter (stmt (ind + 2) ppf) b)
        rest;
      if els <> [] then begin
        Fmt.pf ppf "%aelse@." indent ind;
        List.iter (stmt (ind + 2) ppf) els
      end;
      Fmt.pf ppf "%aend if@." indent ind)
  | Sdo (v, lo, hi, step, body) ->
    (match step with
    | None ->
      Fmt.pf ppf "do %s = %a, %a@." v.vname expr_top lo expr_top hi
    | Some st ->
      Fmt.pf ppf "do %s = %a, %a, %a@." v.vname expr_top lo expr_top hi
        expr_top st);
    List.iter (stmt (ind + 2) ppf) body;
    Fmt.pf ppf "%aend do@." indent ind
  | Sdowhile (c, body) ->
    Fmt.pf ppf "do while (%a)@." expr_top c;
    List.iter (stmt (ind + 2) ppf) body;
    Fmt.pf ppf "%aend do@." indent ind
  | Sgoto n -> Fmt.pf ppf "goto %d@." n
  | Scontinue -> Fmt.pf ppf "continue@."
  | Sreturn -> Fmt.pf ppf "return@."
  | Sstop -> Fmt.pf ppf "stop@."
  | Sprint [] -> Fmt.pf ppf "print *@."
  | Sprint args ->
    Fmt.pf ppf "print *, %a@." (Fmt.list ~sep:(Fmt.any ", ") expr_top) args
  | Sread ls -> Fmt.pf ppf "read *, %a@." (Fmt.list ~sep:(Fmt.any ", ") lhs) ls

(* Declarations reconstructed from the resolved symbol information.
   Formals, the result and common members keep their place whatever is
   declared; a local is placed by its declaration, so every local is
   declared. *)
let decls ppf (p : Prog.proc) =
  let declare (v : Prog.var) =
    match v.vdims with
    | [] -> Fmt.pf ppf "  %a %s@." Ast.pp_ty v.vty v.vname
    | ds ->
      Fmt.pf ppf "  %a %s(%a)@." Ast.pp_ty v.vty v.vname
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.int)
        ds
  in
  let declare_if_needed (v : Prog.var) =
    if v.vdims <> [] || v.vty <> Implicit.ty_of_name v.vname then declare v
  in
  List.iter declare_if_needed p.pformals;
  Option.iter declare_if_needed p.presult;
  (* common members: group consecutive same-block entries *)
  let rec group = function
    | [] -> []
    | (alias, (g : Prog.global)) :: rest ->
      let block = g.gblock in
      let same, others =
        let rec split acc = function
          | (a, (g' : Prog.global)) :: tl when g'.gblock = block ->
            split ((a, g') :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        split [ (alias, g) ] rest
      in
      (block, same) :: group others
  in
  List.iter
    (fun (block, members) ->
      Fmt.pf ppf "  common /%s/ %a@." block
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (a, _) -> Fmt.string ppf a))
        members;
      List.iter
        (fun (alias, (g : Prog.global)) ->
          declare_if_needed
            { Prog.vname = alias; vty = g.gty; vdims = g.gdims; vkind = Kglobal g })
        members)
    (group p.pglobals);
  List.iter declare p.plocals;
  (* data statements *)
  let data_value ppf (repeat, (c : Prog.data_const)) =
    if repeat <> 1 then Fmt.pf ppf "%d*" repeat;
    match c with
    | Prog.Dc_int n -> Fmt.int ppf n
    | Prog.Dc_real f -> Fmt.string ppf (real_string f)
    | Prog.Dc_bool true -> Fmt.string ppf ".true."
    | Prog.Dc_bool false -> Fmt.string ppf ".false."
  in
  List.iter
    (fun (d : Prog.data_init) ->
      Fmt.pf ppf "  data %s /%a/@." d.di_var.vname
        (Fmt.list ~sep:(Fmt.any ", ") data_value)
        d.di_values)
    p.pdata

let pp_proc ppf (p : Prog.proc) =
  (match p.pkind with
  | Pmain -> Fmt.pf ppf "program %s@." p.pname
  | Psubroutine ->
    if p.pformals = [] then Fmt.pf ppf "subroutine %s@." p.pname
    else
      Fmt.pf ppf "subroutine %s(%a)@." p.pname
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v : Prog.var) -> Fmt.string ppf v.vname))
        p.pformals
  | Pfunction ->
    Fmt.pf ppf "function %s(%a)@." p.pname
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v : Prog.var) -> Fmt.string ppf v.vname))
      p.pformals);
  decls ppf p;
  List.iter (stmt 2 ppf) p.pbody;
  Fmt.pf ppf "end@."

let pp_program ppf (t : Prog.t) =
  List.iteri
    (fun i p ->
      if i > 0 then Fmt.pf ppf "@.";
      pp_proc ppf p)
    t.procs

let program_to_string t = Fmt.str "%a" pp_program t
