(** Constant propagation (the paper's analysis) as the first client of
    {!Analysis_sig.S}.  The two evaluators are the exact rules the
    pre-functorization [Solver.eval_jf] and [Certify.eval_sym] applied,
    moved here verbatim so every const-analysis output stays
    byte-identical across the API redesign. *)

module L = Const_lattice

(* The solver's rule: no support is ⊥; any ⊥ input forces ⊥; then any ⊤
   input forces ⊤; an all-constant support folds arithmetically, with a
   trap (division by zero, huge exponent) reading as ⊥. *)
let eval_jf ~(env : Symbolic.leaf -> Const_lattice.t) (jf : Symbolic.t) :
    Const_lattice.t =
  match Symbolic.support jf with
  | None -> Const_lattice.Bottom
  | Some leaves ->
    let values = List.map (fun l -> (l, env l)) leaves in
    if List.exists (fun (_, v) -> v = Const_lattice.Bottom) values then
      Const_lattice.Bottom
    else if List.exists (fun (_, v) -> v = Const_lattice.Top) values then
      Const_lattice.Top
    else
      let env l =
        match List.assoc_opt l values with
        | Some (Const_lattice.Const c) -> Some c
        | Some Const_lattice.Top | Some Const_lattice.Bottom | None -> None
      in
      Const_lattice.of_option (Symbolic.eval ~env jf)

(* ------------------------------------------------------------------ *)
(* The certifier's structurally independent second opinion.            *)

(* Structural evaluation summary.  The order of absorption mirrors the
   solver's rule exactly: an [Unknown] anywhere forces ⊥ (no support),
   then any ⊥ input forces ⊥, then any ⊤ input forces ⊤ — even when a
   sibling subtree of constants would trap — and only an all-constant
   tree is arithmetic (where a trap means ⊥). *)
type ev = Eunknown | Ebot | Etop | Enum of int option

let fold_arith (op : Symbolic.op) x y : int option =
  match op with
  | Symbolic.Add -> Some (x + y)
  | Symbolic.Sub -> Some (x - y)
  | Symbolic.Mul -> Some (x * y)
  | Symbolic.Div -> if y = 0 then None else Some (x / y)
  | Symbolic.Pow -> Symbolic.int_pow x y

let certify_eval ~(env : Symbolic.leaf -> Const_lattice.t) (jf : Symbolic.t)
    : Const_lattice.t =
  let rec go : Symbolic.t -> ev = function
    | Symbolic.Const n -> Enum (Some n)
    | Symbolic.Unknown -> Eunknown
    | Symbolic.Leaf l -> (
      match env l with
      | Const_lattice.Bottom -> Ebot
      | Const_lattice.Top -> Etop
      | Const_lattice.Const n -> Enum (Some n))
    | Symbolic.Neg a -> (
      match go a with
      | Enum v -> Enum (Option.map (fun n -> -n) v)
      | (Eunknown | Ebot | Etop) as s -> s)
    | Symbolic.Bin (op, a, b) -> (
      match (go a, go b) with
      | Eunknown, _ | _, Eunknown -> Eunknown
      | Ebot, _ | _, Ebot -> Ebot
      | Etop, _ | _, Etop -> Etop
      | Enum x, Enum y -> (
        Enum
          (match (x, y) with
          | Some x, Some y -> fold_arith op x y
          | _ -> None)))
  in
  match go jf with
  | Eunknown | Ebot -> Const_lattice.Bottom
  | Etop -> Const_lattice.Top
  | Enum v -> Const_lattice.of_option v

(* On entry to main a global holds its DATA value if initialized, and is
   otherwise unknown input — ⊥ for constant propagation. *)
let global_seed ~(data : int option) ~key:(_ : string) : Const_lattice.t =
  match data with Some c -> Const_lattice.Const c | None -> Const_lattice.Bottom

(* A value no generated or hand-written test program uses, so a
   corrupted ⊥-binding never collides with a genuine constant. *)
let sentinel = 999983

let corrupt ~(shift : int) : Const_lattice.t -> Const_lattice.t = function
  | Const_lattice.Bottom -> Const_lattice.Const sentinel
  | Const_lattice.Const c -> Const_lattice.Const (c + 1 + shift)
  | Const_lattice.Top -> assert false
