(** Copy propagation as the second client of {!Analysis_sig.S}.

    Copy facts flow only through pass-through jump functions (the
    identity on a single leaf): a compound expression over a load-time
    value is not itself a copy of anything, and its constant folding
    cannot proceed either, so any [Copy] input to a genuinely compound
    jump function degrades to ⊥ — {e before} the ⊤ check, exactly where
    ⊥ is checked in the constant rule, which is what makes
    {!Copy_lattice.project} commute with evaluation. *)

module L = Copy_lattice

let eval_jf ~(env : Symbolic.leaf -> Copy_lattice.t) (jf : Symbolic.t) :
    Copy_lattice.t =
  match Symbolic.support jf with
  | None -> Copy_lattice.Bottom
  | Some leaves -> (
    match Symbolic.as_leaf jf with
    | Some l -> env l (* pass-through: every fact survives verbatim *)
    | None ->
      let values = List.map (fun l -> (l, env l)) leaves in
      if List.exists (fun (_, v) -> v = Copy_lattice.Bottom) values then
        Copy_lattice.Bottom
      else if
        List.exists (fun (_, v) -> Copy_lattice.is_copy v) values
      then Copy_lattice.Bottom
      else if List.exists (fun (_, v) -> v = Copy_lattice.Top) values then
        Copy_lattice.Top
      else
        let env l =
          match List.assoc_opt l values with
          | Some (Copy_lattice.Const c) -> Some c
          | Some _ | None -> None
        in
        Copy_lattice.of_option (Symbolic.eval ~env jf))

(* ------------------------------------------------------------------ *)
(* The certifier's structurally independent second opinion: the same
   absorption chain as the constant evaluator with one extra level,
   [Ecopy], slotted between ⊥ and ⊤ to mirror the rule above.  A bare
   leaf is special-cased first, as in [eval_jf]. *)

type ev = Eunknown | Ebot | Ecopy | Etop | Enum of int option

let fold_arith (op : Symbolic.op) x y : int option =
  match op with
  | Symbolic.Add -> Some (x + y)
  | Symbolic.Sub -> Some (x - y)
  | Symbolic.Mul -> Some (x * y)
  | Symbolic.Div -> if y = 0 then None else Some (x / y)
  | Symbolic.Pow -> Symbolic.int_pow x y

let certify_eval ~(env : Symbolic.leaf -> Copy_lattice.t) (jf : Symbolic.t) :
    Copy_lattice.t =
  match Symbolic.as_leaf jf with
  | Some l -> env l
  | None -> (
    let rec go : Symbolic.t -> ev = function
      | Symbolic.Const n -> Enum (Some n)
      | Symbolic.Unknown -> Eunknown
      | Symbolic.Leaf l -> (
        match env l with
        | Copy_lattice.Bottom -> Ebot
        | Copy_lattice.Copy _ -> Ecopy
        | Copy_lattice.Top -> Etop
        | Copy_lattice.Const n -> Enum (Some n))
      | Symbolic.Neg a -> (
        match go a with
        | Enum v -> Enum (Option.map (fun n -> -n) v)
        | (Eunknown | Ebot | Ecopy | Etop) as s -> s)
      | Symbolic.Bin (op, a, b) -> (
        match (go a, go b) with
        | Eunknown, _ | _, Eunknown -> Eunknown
        | Ebot, _ | _, Ebot -> Ebot
        | Ecopy, _ | _, Ecopy -> Ecopy
        | Etop, _ | _, Etop -> Etop
        | Enum x, Enum y -> (
          Enum
            (match (x, y) with
            | Some x, Some y -> fold_arith op x y
            | _ -> None)))
    in
    match go jf with
    | Eunknown | Ebot | Ecopy -> Copy_lattice.Bottom
    | Etop -> Copy_lattice.Top
    | Enum (Some c) -> Copy_lattice.Const c
    | Enum None -> Copy_lattice.Bottom)

(* On entry to main an initialized global holds its DATA constant; an
   uninitialized one is a perfect copy of its own load-time value —
   the one place copy facts are born. *)
let global_seed ~(data : int option) ~(key : string) : Copy_lattice.t =
  match data with
  | Some c -> Copy_lattice.Const c
  | None -> Copy_lattice.Copy key

let sentinel = 999983

let corrupt ~(shift : int) : Copy_lattice.t -> Copy_lattice.t = function
  | Copy_lattice.Bottom | Copy_lattice.Copy _ -> Copy_lattice.Const sentinel
  | Copy_lattice.Const c -> Copy_lattice.Const (c + 1 + shift)
  | Copy_lattice.Top -> assert false
