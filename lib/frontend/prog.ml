(** Resolved MiniFort programs, as produced by {!Sema}.

    Every variable reference is resolved to a {!var} carrying its kind
    (formal / local / common global / function result), every [Eapply] from
    the raw AST has been split into array references and function calls, and
    every expression and statement carries a program-wide unique id used to
    map analysis results back to source positions (the substitution pass and
    the SSA construction both rely on these ids). *)

type ty = Ast.ty = Tint | Treal | Tlogical

(** A common-block global.  Identity is [(gblock, gslot)]: FORTRAN common
    storage associates members positionally, so the same slot may be known
    under different local names in different program units. *)
type global = {
  gblock : string;
  gslot : int;  (** 0-based position within the block *)
  gname : string;  (** canonical display name (first declaration wins) *)
  gty : ty;
  gdims : int list;  (** [[]] for scalars *)
}

let global_key g = g.gblock ^ ":" ^ string_of_int g.gslot

let equal_global a b = a.gblock = b.gblock && a.gslot = b.gslot

type var_kind =
  | Kformal of int  (** position in the formal list, 0-based *)
  | Klocal
  | Kglobal of global
  | Kresult  (** the function-name result variable *)

type var = { vname : string; vty : ty; vdims : int list; vkind : var_kind }

let is_array v = v.vdims <> []

let is_scalar v = v.vdims = []

(** FORTRAN intrinsic functions (the generic names). *)
type intrinsic = Iabs | Imin | Imax | Imod

let intrinsic_name = function
  | Iabs -> "abs"
  | Imin -> "min"
  | Imax -> "max"
  | Imod -> "mod"

let intrinsic_of_name = function
  | "abs" -> Some Iabs
  | "min" -> Some Imin
  | "max" -> Some Imax
  | "mod" -> Some Imod
  | _ -> None

type expr = { eid : int; eloc : Loc.t; ety : ty; edesc : edesc }

and edesc =
  | Cint of int
  | Creal of float
  | Cbool of bool
  | Cstr of string
  | Evar of var
  | Earr of var * expr list
  | Ecall of string * expr list  (** user function call *)
  | Eintr of intrinsic * expr list  (** intrinsic function application *)
  | Eun of Ast.unop * expr
  | Ebin of Ast.binop * expr * expr

type lhs = Lvar of var | Larr of var * expr list

type stmt = { sid : int; sloc : Loc.t; slabel : int option; sdesc : sdesc }

and sdesc =
  | Sassign of lhs * expr
  | Scall of string * expr list
  | Sif of (expr * stmt list) list * stmt list
  | Sdo of var * expr * expr * expr option * stmt list
  | Sdowhile of expr * stmt list
  | Sgoto of int
  | Scontinue
  | Sreturn
  | Sstop
  | Sprint of expr list
  | Sread of lhs list

type proc_kind = Pmain | Psubroutine | Pfunction

(** A resolved [data] initialization: the variable and its load-time
    values (with repeat counts already validated against the shape). *)
type data_init = { di_var : var; di_values : (int * data_const) list }

and data_const = Dc_int of int | Dc_real of float | Dc_bool of bool

type proc = {
  pname : string;
  pkind : proc_kind;
  pformals : var list;
  presult : var option;  (** [Some] iff [pkind = Pfunction] *)
  plocals : var list;
  pglobals : (string * global) list;
      (** commons declared by this unit: local alias name and the global *)
  pdata : data_init list;  (** load-time initializations declared here *)
  pbody : stmt list;
  ploc : Loc.t;
}

type t = { procs : proc list; main : string }

(* ------------------------------------------------------------------ *)
(* Interprocedural parameters: the names CONSTANTS sets range over.     *)

(** An interprocedural "parameter" in the paper's extended sense (§2
    footnote 1): a positional formal or a common-block global. *)
type param = Pformal of int | Pglob of string  (** global key *)

(* [Stdlib.compare]'s order, without its polymorphic traversal: every
   Param_map and Param_set operation in the solver calls this. *)
let compare_param (a : param) (b : param) =
  match (a, b) with
  | Pformal i, Pformal j -> Int.compare i j
  | Pglob x, Pglob y -> String.compare x y
  | Pformal _, Pglob _ -> -1
  | Pglob _, Pformal _ -> 1

let equal_param a b = compare_param a b = 0

module Param_map = Map.Make (struct
  type t = param

  let compare = compare_param
end)

module Param_set = Set.Make (struct
  type t = param

  let compare = compare_param
end)

(* ------------------------------------------------------------------ *)
(* Lookups and traversals.                                             *)

(* Every whole-program walk below bumps the [prog.walks] counter.  Work
   done once per procedure must not call them: a walk per procedure makes
   the analysis quadratic, and the tier-1 complexity contract holds the
   count flat as programs grow. *)
let count_walk () = Ipcp_telemetry.Telemetry.incr "prog.walks"

(** Display name of every global key: the alias its first declaring unit
    gives it.  In a fresh parse that is the global's [gname] ([Sema] takes
    the block layout from the first declaration); read from the units
    themselves, it holds for a program assembled from several parses
    too.  One walk. *)
let global_names t : (string, string) Hashtbl.t =
  count_walk ();
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun (alias, g) ->
          let key = global_key g in
          if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key alias)
        p.pglobals)
    t.procs;
  tbl

(** Human-readable name of a parameter of [proc]: a global's alias in
    [proc] when it declares it, otherwise its {!global_names} entry.
    Staged: [param_name prog] builds that table once, on first need, so
    a renderer hoists it out of its loop over procedures. *)
let param_name prog =
  let names = lazy (global_names prog) in
  fun proc -> function
    | Pformal i -> (
      match List.nth_opt proc.pformals i with
      | Some v -> v.vname
      | None -> Printf.sprintf "<formal %d>" i)
    | Pglob key -> (
      let in_proc =
        List.find_map
          (fun (alias, g) -> if global_key g = key then Some alias else None)
          proc.pglobals
      in
      match in_proc with
      | Some n -> n
      | None -> (
        match Hashtbl.find_opt (Lazy.force names) key with
        | Some n -> n
        | None -> key))

let find_proc t name =
  count_walk ();
  List.find_opt (fun p -> p.pname = name) t.procs

(** Name → procedure for callers that look up many procedures: one walk
    in all instead of one per {!find_proc}.  Answers as {!find_proc}
    does (the first procedure of a name wins). *)
let proc_table t : (string, proc) Hashtbl.t =
  count_walk ();
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p -> if not (Hashtbl.mem tbl p.pname) then Hashtbl.replace tbl p.pname p)
    t.procs;
  tbl

let find_proc_exn t name =
  match find_proc t name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prog.find_proc_exn: no procedure %s" name)

(** The global (if any) that a variable of this procedure denotes. *)
let global_of_var v = match v.vkind with Kglobal g -> Some g | _ -> None

(** Apply [f] to every statement in a body, recursing into nested blocks. *)
let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.sdesc with
      | Sif (arms, els) ->
        List.iter (fun (_, b) -> iter_stmts f b) arms;
        iter_stmts f els
      | Sdo (_, _, _, _, b) | Sdowhile (_, b) -> iter_stmts f b
      | Sassign _ | Scall _ | Sgoto _ | Scontinue | Sreturn | Sstop | Sprint _
      | Sread _ ->
        ())
    stmts

(** Apply [f] to every expression (including subexpressions) in a body. *)
let iter_exprs f stmts =
  let rec expr e =
    f e;
    match e.edesc with
    | Cint _ | Creal _ | Cbool _ | Cstr _ | Evar _ -> ()
    | Earr (_, idx) -> List.iter expr idx
    | Ecall (_, args) | Eintr (_, args) -> List.iter expr args
    | Eun (_, a) -> expr a
    | Ebin (_, a, b) ->
      expr a;
      expr b
  in
  let lhs = function Lvar _ -> () | Larr (_, idx) -> List.iter expr idx in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Sassign (l, e) ->
        lhs l;
        expr e
      | Scall (_, args) -> List.iter expr args
      | Sif (arms, _) -> List.iter (fun (c, _) -> expr c) arms
      | Sdo (_, lo, hi, step, _) ->
        expr lo;
        expr hi;
        Option.iter expr step
      | Sdowhile (c, _) -> expr c
      | Sprint args -> List.iter expr args
      | Sread ls -> List.iter lhs ls
      | Sgoto _ | Scontinue | Sreturn | Sstop -> ())
    stmts

(** All call sites in a procedure body: statement-level [call]s and function
    calls nested in expressions.  The id is the stmt id for [Scall] and the
    expression id for function calls, so it is unique program-wide. *)
type call_site = { cs_id : int; cs_callee : string; cs_args : expr list }

let call_sites proc =
  let acc = ref [] in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Scall (callee, args) ->
        acc := { cs_id = s.sid; cs_callee = callee; cs_args = args } :: !acc
      | _ -> ())
    proc.pbody;
  iter_exprs
    (fun e ->
      match e.edesc with
      | Ecall (callee, args) ->
        acc := { cs_id = e.eid; cs_callee = callee; cs_args = args } :: !acc
      | _ -> ())
    proc.pbody;
  List.sort (fun a b -> compare a.cs_id b.cs_id) !acc

(** All globals referenced anywhere in the program, keyed canonically. *)
let all_globals t =
  count_walk ();
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (_, g) ->
          let key = global_key g in
          if not (Hashtbl.mem tbl key) then begin
            Hashtbl.replace tbl key g;
            order := g :: !order
          end)
        p.pglobals)
    t.procs;
  List.rev !order

(** The load-time [data] values of the main program's scalar integer
    variables (locals and globals): the initial-memory facts that seed
    main's entry in the solver, its jump functions and SCCP.  A global's
    [data] statement may sit in any unit.  Both walks — for main and over
    every unit's [data] statements — happen here, once; the returned
    lookup answers from tables.  The first matching initialization
    wins. *)
let main_data t : var -> int option =
  count_walk ();
  let globals = Hashtbl.create 8 and main = ref None in
  List.iter
    (fun p ->
      if p.pname = t.main && Option.is_none !main then main := Some p;
      List.iter
        (fun (d : data_init) ->
          match (d.di_var.vkind, d.di_values) with
          | Kglobal g, [ (1, Dc_int v) ] when is_scalar d.di_var ->
            let key = global_key g in
            if not (Hashtbl.mem globals key) then Hashtbl.replace globals key v
          | _ -> ())
        p.pdata)
    t.procs;
  match !main with
  | None -> fun _ -> None
  | Some main ->
    let locals = Hashtbl.create 8 in
    List.iter
      (fun (d : data_init) ->
        match (d.di_var.vkind, d.di_values) with
        | Klocal, [ (1, Dc_int v) ]
          when is_scalar d.di_var && not (Hashtbl.mem locals d.di_var.vname) ->
          Hashtbl.replace locals d.di_var.vname v
        | _ -> ())
      main.pdata;
    fun v ->
      match v.vkind with
      | Kglobal g -> Hashtbl.find_opt globals (global_key g)
      | Klocal -> Hashtbl.find_opt locals v.vname
      | Kformal _ | Kresult -> None

(** The load-time [data] value of one scalar integer variable of the main
    program (local or global); {!main_data} answers many such queries. *)
let data_value_in_main t (v : var) : int option = main_data t v

(* ------------------------------------------------------------------ *)
(* Structural identity.                                                *)

(* Two procedures are the same procedure when every field agrees except
   the artifacts of one parse: expression/statement ids and source
   locations.  Every other field counts, display names included — the
   printed output reads them.  Reals compare by bit pattern, so a [nan]
   literal equals itself and [0.0] differs from [-0.0], as their printed
   forms do.  Each level tries physical equality first. *)

let equal_ty (a : ty) (b : ty) =
  match (a, b) with
  | Tint, Tint | Treal, Treal | Tlogical, Tlogical -> true
  | (Tint | Treal | Tlogical), _ -> false

let equal_dims = List.equal Int.equal

let equal_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(** Every field of a global, [gname] included (unlike {!equal_global},
    which compares storage). *)
let same_global (a : global) (b : global) =
  a == b
  || String.equal a.gblock b.gblock
     && Int.equal a.gslot b.gslot
     && String.equal a.gname b.gname
     && equal_ty a.gty b.gty && equal_dims a.gdims b.gdims

let same_var (a : var) (b : var) =
  a == b
  || String.equal a.vname b.vname
     && equal_ty a.vty b.vty && equal_dims a.vdims b.vdims
     &&
     match (a.vkind, b.vkind) with
     | Kformal i, Kformal j -> Int.equal i j
     | Klocal, Klocal | Kresult, Kresult -> true
     | Kglobal g, Kglobal h -> same_global g h
     | (Kformal _ | Klocal | Kglobal _ | Kresult), _ -> false

let rec same_expr (a : expr) (b : expr) =
  a == b
  || equal_ty a.ety b.ety
     &&
     match (a.edesc, b.edesc) with
     | Cint m, Cint n -> Int.equal m n
     | Creal x, Creal y -> equal_float x y
     | Cbool x, Cbool y -> Bool.equal x y
     | Cstr x, Cstr y -> String.equal x y
     | Evar v, Evar w -> same_var v w
     | Earr (v, xs), Earr (w, ys) -> same_var v w && same_exprs xs ys
     | Ecall (f, xs), Ecall (g, ys) -> String.equal f g && same_exprs xs ys
     | Eintr (i, xs), Eintr (j, ys) -> i = j && same_exprs xs ys
     | Eun (o, x), Eun (p, y) -> o = p && same_expr x y
     | Ebin (o, x1, x2), Ebin (p, y1, y2) ->
       o = p && same_expr x1 y1 && same_expr x2 y2
     | ( ( Cint _ | Creal _ | Cbool _ | Cstr _ | Evar _ | Earr _ | Ecall _
         | Eintr _ | Eun _ | Ebin _ ),
         _ ) ->
       false

and same_exprs xs ys = List.equal same_expr xs ys

let same_lhs a b =
  match (a, b) with
  | Lvar v, Lvar w -> same_var v w
  | Larr (v, xs), Larr (w, ys) -> same_var v w && same_exprs xs ys
  | (Lvar _ | Larr _), _ -> false

let rec same_stmt (a : stmt) (b : stmt) =
  a == b
  || Option.equal Int.equal a.slabel b.slabel
     &&
     match (a.sdesc, b.sdesc) with
     | Sassign (l, x), Sassign (m, y) -> same_lhs l m && same_expr x y
     | Scall (f, xs), Scall (g, ys) -> String.equal f g && same_exprs xs ys
     | Sif (arms, els), Sif (arms', els') ->
       List.equal
         (fun (c, b) (c', b') -> same_expr c c' && same_stmts b b')
         arms arms'
       && same_stmts els els'
     | Sdo (v, lo, hi, st, b), Sdo (v', lo', hi', st', b') ->
       same_var v v' && same_expr lo lo' && same_expr hi hi'
       && Option.equal same_expr st st'
       && same_stmts b b'
     | Sdowhile (c, b), Sdowhile (c', b') -> same_expr c c' && same_stmts b b'
     | Sgoto l, Sgoto l' -> Int.equal l l'
     | Scontinue, Scontinue | Sreturn, Sreturn | Sstop, Sstop -> true
     | Sprint xs, Sprint ys -> same_exprs xs ys
     | Sread ls, Sread ls' -> List.equal same_lhs ls ls'
     | ( ( Sassign _ | Scall _ | Sif _ | Sdo _ | Sdowhile _ | Sgoto _
         | Scontinue | Sreturn | Sstop | Sprint _ | Sread _ ),
         _ ) ->
       false

and same_stmts xs ys = List.equal same_stmt xs ys

let same_data_const a b =
  match (a, b) with
  | Dc_int m, Dc_int n -> Int.equal m n
  | Dc_real x, Dc_real y -> equal_float x y
  | Dc_bool x, Dc_bool y -> Bool.equal x y
  | (Dc_int _ | Dc_real _ | Dc_bool _), _ -> false

let same_data (a : data_init) (b : data_init) =
  same_var a.di_var b.di_var
  && List.equal
       (fun (r, c) (r', c') -> Int.equal r r' && same_data_const c c')
       a.di_values b.di_values

(** [a] and [b] are the same procedure up to ids and locations: equal in
    name, kind, formals, result, locals, commons (aliases and global
    records), [data] and body.  Grafting reuses the previous version's
    value whole, so nothing the analysis or the printer reads may
    differ. *)
let equal_proc (a : proc) (b : proc) =
  a == b
  || String.equal a.pname b.pname
     && a.pkind = b.pkind
     && List.equal same_var a.pformals b.pformals
     && Option.equal same_var a.presult b.presult
     && List.equal same_var a.plocals b.plocals
     && List.equal
          (fun (x, g) (y, h) -> String.equal x y && same_global g h)
          a.pglobals b.pglobals
     && List.equal same_data a.pdata b.pdata
     && same_stmts a.pbody b.pbody
