(** Jump functions — the paper's subject (§3).

    Forward jump functions approximate the value of each actual parameter
    (and each common global) at each call site as a function of the
    enclosing procedure's entry values; the four implementations trade
    construction cost against the class of constants they can propagate.
    Return jump functions approximate what a call leaves in its function
    result, modified by-reference formals, and modified globals. *)

open Ipcp_frontend
open Ipcp_analysis

(** The four forward implementations, in increasing precision (§3.1):
    each propagates a superset of its predecessor's constants. *)
type kind = Literal | Intraconst | Passthrough | Polynomial

val kind_name : kind -> string
val all_kinds : kind list

module Int_map : Map.S with type key = int
module Str_map : Map.S with type key = string

(** Return jump functions of one procedure (§3.2), as symbolic expressions
    over the procedure's own entry values. *)
type ret_jf = {
  rj_result : Symbolic.t;  (** [Unknown] for subroutines *)
  rj_formals : Symbolic.t Int_map.t;  (** only formals in MOD *)
  rj_globals : Symbolic.t Str_map.t;  (** only globals in MOD *)
}

val empty_ret_jf : ret_jf

(** Forward jump functions of one call site: one per callee formal
    position, one per program global. *)
type site_jf = {
  sf_caller : string;
  sf_callee : string;
  sf_site : int;  (** program-wide call-site id *)
  sf_formals : Symbolic.t array;
  sf_globals : (string * Symbolic.t) list;
}

(** A procedure's IR up to SSA — CFG, dominators, SSA, the variable
    standing for each program global in this procedure, and the load-time
    constants its variables hold on entry (main's [data]).  It depends on
    the configuration only through MOD's call-kill sets. *)
type proc_ssa = {
  ps_proc : Prog.proc;
  ps_cfg : Ipcp_ir.Cfg.t;
  ps_dom : Ipcp_ir.Dom.t;
  ps_ssa : Ipcp_ir.Ssa.t;
  ps_global_vars : (string * Prog.var) list;
  ps_entry_const : Prog.var -> int option;
}

(** Per-procedure IR bundle: a {!proc_ssa} with symbolic values. *)
type proc_ir = {
  pi_proc : Prog.proc;
  pi_cfg : Ipcp_ir.Cfg.t;
  pi_dom : Ipcp_ir.Dom.t;
  pi_ssa : Ipcp_ir.Ssa.t;
  pi_sv : Ssa_value.t;
  pi_global_vars : (string * Prog.var) list;
  pi_entry_const : Prog.var -> int option;
}

(** What every procedure's IR reads of the rest of the program — the
    expression-id ceiling, the global list, main's load-time values and a
    name → procedure table — computed once per program by {!facts}, so
    that building one procedure's IR touches only that procedure. *)
type facts = {
  f_procs : (string, Prog.proc) Hashtbl.t;
  f_globals : Prog.global list;
  f_expr_ceiling : int;
  f_main_data : Prog.var -> int option;
}

val facts : Prog.t -> facts

(** Build a procedure's IR up to SSA: lowering, dominators and SSA.
    [modref] drives the call-kill sets. *)
val build_ir : facts -> modref:Modref.t -> Prog.proc -> proc_ssa

(** The IR bundle over a {!proc_ssa}, with fresh symbolic values that
    evaluate calls through [oracle].  Each consumer takes its own: the
    values memoize oracle answers, so sharing them across oracle states
    would answer stale. *)
val with_oracle : ?oracle:Ssa_value.oracle -> proc_ssa -> proc_ir

(** An oracle evaluating return jump functions from a table, over constant
    actuals only (the paper's §3.2 rule). *)
val oracle_of_table : (string, ret_jf) Hashtbl.t -> Ssa_value.oracle

(** Return jump functions of one procedure: the meet of each value's
    symbolic expression over all reachable exits.  With worst-case MOD
    information only the function-result jump function is produced. *)
val build_ret_jf : modref:Modref.t -> proc_ir -> ret_jf

(** Forward jump functions for every call site of a procedure, restricted
    to what [kind] can express. *)
val build_site_jfs : kind:kind -> proc_ir -> site_jf list

(** Total expression size at a site — the construction/evaluation cost
    proxy of §3.1.5. *)
val site_cost : site_jf -> int

(** Total support size at a site (the polynomial propagation bound carries
    a |support(J)| factor). *)
val site_support : site_jf -> int

val pp_site : site_jf Fmt.t
