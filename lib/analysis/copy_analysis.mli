(** Copy propagation as the second client of the functorized analysis
    interface ({!Analysis_sig.S}), over {!Copy_lattice}.

    Copy facts are born at main's entry (uninitialized globals) and
    survive only through pass-through jump functions; any compound
    evaluation over a copy degrades to ⊥ before the ⊤ check, making
    {!Copy_lattice.project} a transfer-function homomorphism onto the
    constant analysis — the basis of the subsumption experiment. *)

module L : Analysis_sig.LATTICE with type t = Copy_lattice.t

val eval_jf : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
val certify_eval : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
val global_seed : data:int option -> key:string -> L.t
val corrupt : shift:int -> L.t -> L.t
