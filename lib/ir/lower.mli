(** Lowering resolved procedures to control-flow graphs: function calls are
    hoisted out of expressions into explicit call instructions (fresh
    temporaries), [do] loops evaluate bounds once into a header test, and
    [goto]/labels become block edges. *)

open Ipcp_frontend

(** Lower one procedure.  [next_expr_id] must exceed every expression id in
    the program so synthesized expressions get fresh ids; pass
    {!expr_id_ceiling}. *)
val lower_proc : next_expr_id:int -> Prog.proc -> Cfg.t

(** One past the highest statement/expression id in a resolved program. *)
val expr_id_ceiling : Prog.t -> int

(** One past the highest statement/expression id of one procedure. *)
val proc_id_ceiling : Prog.proc -> int

(** Lower every procedure. *)
val lower_program : Prog.t -> (string * Cfg.t) list
