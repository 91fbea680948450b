(** Raw abstract syntax for MiniFort, as produced by the parser.

    Names are unresolved: [Eapply] covers both array references and function
    calls (disambiguated by {!Sema}), and variables are bare strings.  The
    resolved representation lives in {!Prog}. *)

type ty = Tint | Treal | Tlogical

let pp_ty ppf = function
  | Tint -> Fmt.string ppf "integer"
  | Treal -> Fmt.string ppf "real"
  | Tlogical -> Fmt.string ppf "logical"

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

let is_relational = function
  | Lt | Le | Gt | Ge | Eq | Ne -> true
  | Add | Sub | Mul | Div | Pow | And | Or -> false

let is_arith = function
  | Add | Sub | Mul | Div | Pow -> true
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false

let is_logical = function
  | And | Or -> true
  | Add | Sub | Mul | Div | Pow | Lt | Le | Gt | Ge | Eq | Ne -> false

type expr = { eloc : Loc.t; edesc : edesc }

and edesc =
  | Eint of int
  | Ereal of float
  | Ebool of bool
  | Estring of string  (** only valid inside [print] *)
  | Ename of string
  | Eapply of string * expr list  (** array reference or function call *)
  | Eunop of unop * expr
  | Ebinop of binop * expr * expr

type lhs = { lloc : Loc.t; lname : string; lindex : expr list }

type stmt = { sloc : Loc.t; label : int option; sdesc : sdesc }

and sdesc =
  | Sassign of lhs * expr
  | Scall of string * expr list
  | Sif of (expr * stmt list) list * stmt list
      (** [if/elseif] arms with their guards, then the [else] body *)
  | Sdo of string * expr * expr * expr option * stmt list
      (** [do v = lo, hi [, step]] *)
  | Sdowhile of expr * stmt list
  | Sgoto of int
  | Scontinue
  | Sreturn
  | Sstop
  | Sprint of expr list
  | Sread of lhs list

(** One literal value in a [data] statement, with its repeat count
    ([data a /3*0/] fills three elements with 0). *)
type data_value = { dv_repeat : int; dv_lit : data_lit }

and data_lit = Dlit_int of int | Dlit_real of float | Dlit_bool of bool

type decl =
  | Dtype of ty * (string * int list) list  (** names with array dimensions *)
  | Dcommon of string * string list  (** block name, member names *)
  | Dparameter of (string * expr) list  (** named compile-time constants *)
  | Ddata of (string * data_value list) list
      (** load-time initialization: variable, values *)

type unit_kind = Uprogram | Usubroutine | Ufunction

type punit = {
  ukind : unit_kind;
  uname : string;
  uformals : string list;
  udecls : decl list;
  ubody : stmt list;
  uloc : Loc.t;
}

type program = punit list
