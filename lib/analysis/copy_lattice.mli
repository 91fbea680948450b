(** The copy-propagation lattice: Figure 1's constant lattice plus
    [Copy g] facts ("equals global [g]'s load-time value").  The
    interprocedural solver's values under both analyses: constant
    propagation is the copy analysis seeded without copy facts. *)

type t = Top | Const of int | Copy of string | Bottom

val top : t
val bottom : t
val equal : t -> t -> bool

(** Meet: ⊤ identity, ⊥ absorbing; distinct constants, distinct copies,
    and copy-vs-constant all meet to ⊥. *)
val meet : t -> t -> t

(** Partial order consistent with {!meet}; constants and copies are
    incomparable middle-level facts. *)
val le : t -> t -> bool

val is_const : t -> bool
val is_copy : t -> bool

(** [of_option (Some c) = Const c]; [of_option None = Bottom]. *)
val of_option : int option -> t

val const_value : t -> int option

(** Depth stays 2: copies sit beside constants, so the §3.1.5 chain
    bound is unchanged. *)
val height : t -> int

(** Forget copy facts ([Copy _] ↦ ⊥).  A meet- and transfer-function
    homomorphism onto {!Const_lattice}, so the projected copy fixpoint
    is exactly the constant fixpoint — the subsumption invariant
    [tools/fuzz --subsume] enforces. *)
val project : t -> Const_lattice.t

val pp : t Fmt.t
