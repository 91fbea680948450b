(** Constant propagation as the first client of the functorized analysis
    interface ({!Analysis_sig.S}).

    [eval_jf] and [certify_eval] implement exactly the rules the paper's
    solver and PR 4's certifier applied before the functorization, so
    [Solver.Make (Const_analysis)] reproduces the historical results
    byte-for-byte (pinned by the tables golden in CI). *)

module L : Analysis_sig.LATTICE with type t = Const_lattice.t

val eval_jf : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
val certify_eval : env:(Symbolic.leaf -> L.t) -> Symbolic.t -> L.t
val global_seed : data:int option -> key:string -> L.t
val corrupt : shift:int -> L.t -> L.t
