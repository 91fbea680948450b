(** SSA-based value numbering / symbolic evaluation: computes, for every SSA
    name, a {!Symbolic.t} over the procedure's entry values.  This is the
    engine under all four forward jump functions and the return jump
    functions (paper §3). *)

open Ipcp_frontend
open Ipcp_ir

(** What a call (re)defined: its function result, the by-reference actual
    bound to a formal position, or a common global. *)
type target = Tresult | Tformal of int | Tglobal of string

(** [oracle call target lookup] supplies the constant a call leaves in
    [target], by evaluating the callee's return jump function.  [lookup]
    resolves the callee's entry leaves *at this call site*, and only to
    constants — the paper's rule that return jump functions depending on
    the caller's own parameters never evaluate as constant (§3.2).  A
    caller may keep [oracle call target] and apply it to several
    [lookup]s, as {!Sccp} does while the oracle's table is fixed. *)
type oracle = Cfg.call -> target -> (Symbolic.leaf -> int option) -> int option

type t

(** Create an evaluator over SSA tables.  Without an [oracle], every
    call-defined value is [Unknown].  [entry_const] supplies known constant
    entry values (e.g. [data]-initialized storage at the main program's
    entry); such variables evaluate to constants instead of leaves. *)
val create :
  ?oracle:oracle -> ?entry_const:(Prog.var -> int option) -> Ssa.t -> t

(** What call [c] (re)defines in variable [v]: [Tresult], [Tformal] for
    the one position where [v] is a by-reference scalar actual, or
    [Tglobal] for a global not passed as an actual.  [None] when that is
    not attributable (aliased actuals). *)
val call_target : Cfg.call -> Prog.var -> target option

(** Symbolic value of an SSA name (memoized; loop-carried values are
    conservatively [Unknown]). *)
val sym_of_name : t -> Ssa.ssa_name -> Symbolic.t

(** Symbolic value of a pure expression occurring in instruction
    [(block, instr)]; variable uses resolve through that instruction's SSA
    use table. *)
val sym_of_expr : t -> block:int -> instr:int -> Prog.expr -> Symbolic.t

(** Symbolic value of variable [name] at a [return]/[stop] block — the raw
    material of return jump functions. *)
val sym_at_exit : t -> block:int -> string -> Symbolic.t
