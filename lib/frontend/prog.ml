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

let global_key g = Printf.sprintf "%s:%d" g.gblock g.gslot

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

let compare_param (a : param) (b : param) = compare a b

let equal_param a b = compare_param a b = 0

module Param_map = Map.Make (struct
  type t = param

  let compare = compare_param
end)

module Param_set = Set.Make (struct
  type t = param

  let compare = compare_param
end)

(** Human-readable name of a parameter of [proc]. *)
let param_name prog proc = function
  | Pformal i ->
    (match List.nth_opt proc.pformals i with
    | Some v -> v.vname
    | None -> Printf.sprintf "<formal %d>" i)
  | Pglob key ->
    (* Prefer the alias used in [proc] itself, then any canonical name. *)
    let in_proc =
      List.find_map
        (fun (alias, g) -> if global_key g = key then Some alias else None)
        proc.pglobals
    in
    let anywhere () =
      List.find_map
        (fun p ->
          List.find_map
            (fun (_, g) -> if global_key g = key then Some g.gname else None)
            p.pglobals)
        prog.procs
    in
    (match in_proc with
    | Some n -> n
    | None -> ( match anywhere () with Some n -> n | None -> key))

(* ------------------------------------------------------------------ *)
(* Lookups and traversals.                                             *)

(* Every whole-program walk below bumps the [prog.walks] counter.  Work
   done once per procedure must not call them: a walk per procedure makes
   the analysis quadratic, and the tier-1 complexity contract holds the
   count flat as programs grow. *)
let count_walk () = Ipcp_telemetry.Telemetry.incr "prog.walks"

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

(** The load-time [data] value of a scalar integer global, if one is
    declared anywhere in the program.  This is the initial-memory fact the
    solver may assume on entry to the main program. *)
let data_value_of_global t key : int option =
  count_walk ();
  List.find_map
    (fun (p : proc) ->
      List.find_map
        (fun (d : data_init) ->
          match (d.di_var.vkind, d.di_values) with
          | Kglobal g, [ (1, Dc_int v) ]
            when global_key g = key && is_scalar d.di_var ->
            Some v
          | _ -> None)
        p.pdata)
    t.procs

(** The load-time [data] values of the main program's scalar integer
    variables (locals and globals), used to seed jump functions and SCCP
    there.  Both walks — for main and over every unit's [data] statements —
    happen here, once; the returned lookup answers from tables.  The first
    matching initialization wins, as in {!data_value_of_global}. *)
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
