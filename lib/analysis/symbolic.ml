(** Symbolic integer expressions over procedure-entry values.

    These are the paper's "polynomial" jump-function bodies: expression trees
    whose leaves are incoming formal parameters, common globals, or integer
    constants, combined with the standard integer operators.  Smart
    constructors fold constants and apply a few always-safe identities, so a
    tree that is semantically constant usually *is* a [Const].

    [Unknown] is the ⊥ of this little domain: once any subterm is unknown,
    the whole expression is unknown (the paper's jump functions evaluate to
    ⊥ in that case). *)

(** A leaf names a value on entry to the enclosing procedure. *)
type leaf = Lformal of int | Lglobal of string  (** global key *)

(* [Stdlib.compare]'s order, by constructor: every jump-function
   evaluation sorts its support with this. *)
let compare_leaf (a : leaf) (b : leaf) =
  match (a, b) with
  | Lformal i, Lformal j -> Int.compare i j
  | Lglobal x, Lglobal y -> String.compare x y
  | Lformal _, Lglobal _ -> -1
  | Lglobal _, Lformal _ -> 1

module Leaf_set = Set.Make (struct
  type t = leaf

  let compare = compare_leaf
end)

type t =
  | Const of int
  | Leaf of leaf
  | Neg of t
  | Bin of op * t * t
  | Unknown

and op = Add | Sub | Mul | Div | Pow

(* Integer power with FORTRAN semantics; None on 0 ** negative. *)
let int_pow base ex =
  if ex >= 0 then begin
    let rec go acc b e = if e = 0 then acc else go (acc * b) b (e - 1) in
    Some (go 1 base ex)
  end
  else
    match base with
    | 1 -> Some 1
    | -1 -> Some (if ex mod 2 = 0 then 1 else -1)
    | 0 -> None
    | _ -> Some 0

let fold_op op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Pow -> int_pow a b

(* ------------------------------------------------------------------ *)
(* Smart constructors.                                                  *)

let const n = Const n

let leaf l = Leaf l

let unknown = Unknown

let neg = function
  | Unknown -> Unknown
  | Const n -> Const (-n)
  | Neg x -> x
  | x -> Neg x

let bin op x y =
  match (x, y) with
  | Unknown, _ | _, Unknown -> Unknown
  | Const a, Const b -> (
    match fold_op op a b with Some c -> Const c | None -> Unknown)
  | _ -> (
    match (op, x, y) with
    | Add, a, Const 0 | Add, Const 0, a -> a
    | Sub, a, Const 0 -> a
    | Mul, a, Const 1 | Mul, Const 1, a -> a
    | Mul, _, Const 0 | Mul, Const 0, _ -> Const 0
    | Div, a, Const 1 -> a
    | Pow, a, Const 1 -> a
    | Pow, _, Const 0 -> Const 1
    | _ -> Bin (op, x, y))

let add x y = bin Add x y
let sub x y = bin Sub x y
let mul x y = bin Mul x y
let div x y = bin Div x y
let pow x y = bin Pow x y

(* ------------------------------------------------------------------ *)
(* Queries.                                                             *)

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Leaf x, Leaf y -> x = y
  | Neg x, Neg y -> equal x y
  | Bin (o1, x1, y1), Bin (o2, x2, y2) -> o1 = o2 && equal x1 x2 && equal y1 y2
  | Unknown, Unknown -> true
  | (Const _ | Leaf _ | Neg _ | Bin _ | Unknown), _ -> false

let is_const = function Const _ -> true | _ -> false

let const_value = function Const c -> Some c | _ -> None

(** [Some l] iff the expression is exactly the identity on leaf [l] — the
    pass-through case. *)
let as_leaf = function Leaf l -> Some l | _ -> None

let is_unknown = function Unknown -> true | _ -> false

(** The support of a jump function: the exact set of entry values its result
    depends on (paper §2).  Empty for constants; [None] when the expression
    is unknown. *)
let support t : leaf list option =
  let exception Unk in
  let rec go acc = function
    | Const _ -> acc
    | Leaf l -> Leaf_set.add l acc
    | Neg x -> go acc x
    | Bin (_, x, y) -> go (go acc x) y
    | Unknown -> raise Unk
  in
  match go Leaf_set.empty t with
  | s -> Some (Leaf_set.elements s)
  | exception Unk -> None

(** Number of nodes; a proxy for jump-function construction/evaluation cost
    (paper §3.1.5). *)
let rec size = function
  | Const _ | Leaf _ | Unknown -> 1
  | Neg x -> 1 + size x
  | Bin (_, x, y) -> 1 + size x + size y

(** Evaluate under an assignment of leaves to constants.  [None] when any
    needed leaf is unavailable or evaluation would trap (division by zero,
    [0 ** negative]). *)
let eval ~env t : int option =
  let rec go = function
    | Const n -> Some n
    | Leaf l -> env l
    | Neg x -> Option.map (fun v -> -v) (go x)
    | Bin (op, x, y) -> (
      match (go x, go y) with
      | Some a, Some b -> fold_op op a b
      | _ -> None)
    | Unknown -> None
  in
  go t

(** Partially evaluate: substitute known leaves and re-simplify. *)
let substitute ~env t : t =
  let rec go = function
    | Const n -> Const n
    | Leaf l -> ( match env l with Some v -> Const v | None -> Leaf l)
    | Neg x -> neg (go x)
    | Bin (op, x, y) -> bin op (go x) (go y)
    | Unknown -> Unknown
  in
  go t

let op_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"

let pp_leaf ppf = function
  | Lformal i -> Fmt.pf ppf "f%d" i
  | Lglobal k -> Fmt.pf ppf "g[%s]" k

let rec pp ppf = function
  | Const n -> Fmt.int ppf n
  | Leaf l -> pp_leaf ppf l
  | Neg x -> Fmt.pf ppf "(- %a)" pp x
  | Bin (op, x, y) -> Fmt.pf ppf "(%a %s %a)" pp x (op_string op) pp y
  | Unknown -> Fmt.string ppf "⊥"

let to_string t = Fmt.str "%a" pp t

(** Fold an integer intrinsic application over constant arguments.
    Mirrors the reference interpreter's semantics exactly (a property test
    checks agreement). *)
let fold_intrinsic (intr : Ipcp_frontend.Prog.intrinsic) (args : int list) :
    int option =
  match (intr, args) with
  | Ipcp_frontend.Prog.Iabs, [ a ] -> Some (abs a)
  | Ipcp_frontend.Prog.Imin, [ a; b ] -> Some (min a b)
  | Ipcp_frontend.Prog.Imax, [ a; b ] -> Some (max a b)
  | Ipcp_frontend.Prog.Imod, [ a; b ] -> if b = 0 then None else Some (a mod b)
  | (Ipcp_frontend.Prog.Iabs | Ipcp_frontend.Prog.Imin | Ipcp_frontend.Prog.Imax
    | Ipcp_frontend.Prog.Imod), _ ->
    None

(** Translate a frontend arithmetic operator; [None] for non-arithmetic. *)
let op_of_ast : Ipcp_frontend.Ast.binop -> op option = function
  | Ipcp_frontend.Ast.Add -> Some Add
  | Ipcp_frontend.Ast.Sub -> Some Sub
  | Ipcp_frontend.Ast.Mul -> Some Mul
  | Ipcp_frontend.Ast.Div -> Some Div
  | Ipcp_frontend.Ast.Pow -> Some Pow
  | _ -> None
