(** Symbolic integer expressions over procedure-entry values: the bodies of
    polynomial jump functions (paper §3.1.4).

    Smart constructors fold constants and apply always-safe identities, so
    semantically-constant trees usually become [Const].  [Unknown] is
    absorbing: once any subterm is unknown the whole expression is. *)

(** A leaf names a value live on entry to the enclosing procedure. *)
type leaf =
  | Lformal of int  (** positional formal parameter *)
  | Lglobal of string  (** common global, by {!Ipcp_frontend.Prog.global_key} *)

val compare_leaf : leaf -> leaf -> int

type t = private
  | Const of int
  | Leaf of leaf
  | Neg of t
  | Bin of op * t * t
  | Unknown

and op = Add | Sub | Mul | Div | Pow

(** {2 Construction} *)

val const : int -> t
val leaf : leaf -> t
val unknown : t
val neg : t -> t

(** [bin op x y] with constant folding and safe identities (x+0, x*1, x*0,
    x/1, x**0, x**1); division by zero and [0 ** negative] become
    [Unknown]. *)
val bin : op -> t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> t -> t

(** {2 Queries} *)

val equal : t -> t -> bool
val is_const : t -> bool
val const_value : t -> int option

(** [Some l] iff the expression is exactly the identity on [l] — the
    pass-through jump function case (paper §3.1.3). *)
val as_leaf : t -> leaf option

val is_unknown : t -> bool

(** The exact set of entry values the expression depends on (paper §2's
    support); [None] when the expression is [Unknown].  Sorted, duplicate
    free. *)
val support : t -> leaf list option

(** Node count — the construction/evaluation cost proxy of §3.1.5
    ([Jump_function.site_cost]). *)
val size : t -> int

(** {2 Evaluation} *)

(** Evaluate under a partial assignment of leaves.  [None] when a needed
    leaf is unbound or evaluation would trap. *)
val eval : env:(leaf -> int option) -> t -> int option

(** Substitute known leaves and re-simplify. *)
val substitute : env:(leaf -> int option) -> t -> t

(** Integer power with FORTRAN semantics; [None] on [0 ** negative]. *)
val int_pow : int -> int -> int option

(** Fold an intrinsic application over constant arguments; mirrors the
    reference interpreter exactly. *)
val fold_intrinsic : Ipcp_frontend.Prog.intrinsic -> int list -> int option

(** Translate a frontend arithmetic operator; [None] for
    relational/logical operators. *)
val op_of_ast : Ipcp_frontend.Ast.binop -> op option

val pp_leaf : leaf Fmt.t
val pp : t Fmt.t
val to_string : t -> string
