(** Jump functions (paper §3).

    A *forward jump function* J_y^s approximates the value of actual
    parameter [y] at call site [s] as a function of the enclosing
    procedure's entry values.  Four implementations are reproduced, in
    increasing precision (each propagates a superset of the previous one's
    constants):

    - {b Literal}: [c] when the actual is a literal constant at the call
      site, ⊥ otherwise.  Built from a textual scan; misses globals.
    - {b Intraprocedural constant}: [gcp(y,s)] — the constant produced by
      value numbering coupled with MOD information; still only propagates
      along single call-graph edges.
    - {b Pass-through parameter}: additionally recognizes [y = z] where [z]
      is an unmodified incoming parameter, enabling propagation along paths
      of length > 1.
    - {b Polynomial parameter}: the full symbolic expression over entry
      values, when one exists.

    A *return jump function* R_x^p approximates the value of [x] after a
    call to [p] — for the function result, each modified by-reference
    formal, and each modified global — as a polynomial over [p]'s entry
    values.  Return jump functions are built in one bottom-up pass over the
    call graph and are evaluated only over constant actuals (paper §3.2). *)

open Ipcp_frontend
open Ipcp_ir
open Ipcp_analysis

type kind = Literal | Intraconst | Passthrough | Polynomial

let kind_name = function
  | Literal -> "literal"
  | Intraconst -> "intraconst"
  | Passthrough -> "passthrough"
  | Polynomial -> "polynomial"

let all_kinds = [ Literal; Intraconst; Passthrough; Polynomial ]

module Int_map = Map.Make (Int)
module Str_map = Map.Make (String)

(** Return jump functions of one procedure. *)
type ret_jf = {
  rj_result : Symbolic.t;  (** function result; [Unknown] for subroutines *)
  rj_formals : Symbolic.t Int_map.t;  (** for formals in MOD *)
  rj_globals : Symbolic.t Str_map.t;  (** for globals in MOD *)
}

let empty_ret_jf =
  {
    rj_result = Symbolic.unknown;
    rj_formals = Int_map.empty;
    rj_globals = Str_map.empty;
  }

(** Forward jump functions of one call site. *)
type site_jf = {
  sf_caller : string;
  sf_callee : string;
  sf_site : int;  (** program-wide call-site id *)
  sf_formals : Symbolic.t array;  (** per formal position of the callee *)
  sf_globals : (string * Symbolic.t) list;  (** per global key *)
}

(** A procedure's IR up to SSA: what one MOD setting determines. *)
type proc_ssa = {
  ps_proc : Prog.proc;
  ps_cfg : Cfg.t;
  ps_dom : Dom.t;
  ps_ssa : Ssa.t;
  ps_global_vars : (string * Prog.var) list;  (** global key → var in this proc *)
  ps_entry_const : Prog.var -> int option;  (** load-time values on entry *)
}

(** Per-procedure IR bundle: CFG, dominators, SSA and symbolic values. *)
type proc_ir = {
  pi_proc : Prog.proc;
  pi_cfg : Cfg.t;
  pi_dom : Dom.t;
  pi_ssa : Ssa.t;
  pi_sv : Ssa_value.t;
  pi_global_vars : (string * Prog.var) list;
  pi_entry_const : Prog.var -> int option;
}

(** What every procedure's IR reads of the rest of the program, computed
    once per program: building the IR of one procedure then touches only
    that procedure. *)
type facts = {
  f_procs : (string, Prog.proc) Hashtbl.t;  (** name → procedure *)
  f_globals : Prog.global list;  (** {!Prog.all_globals} *)
  f_expr_ceiling : int;  (** {!Lower.expr_id_ceiling} *)
  f_main_data : Prog.var -> int option;  (** {!Prog.main_data} *)
}

let facts (prog : Prog.t) : facts =
  {
    f_procs = Prog.proc_table prog;
    f_globals = Prog.all_globals prog;
    f_expr_ceiling = Lower.expr_id_ceiling prog;
    f_main_data = Prog.main_data prog;
  }

(* ------------------------------------------------------------------ *)
(* Per-procedure variables standing for globals.                        *)

(* Every common global of the program gets a variable in every procedure:
   the declared alias when the unit declares it, or a synthetic name (with
   '@', unlexable) otherwise — undeclared globals still flow through calls
   unchanged and must be representable in SSA. *)
let global_vars_for (globals : Prog.global list) (proc : Prog.proc) :
    (string * Prog.var) list =
  List.map
    (fun (g : Prog.global) ->
      let key = Prog.global_key g in
      let declared =
        List.find_opt (fun (_, g') -> Prog.equal_global g g') proc.pglobals
      in
      let var =
        match declared with
        | Some (alias, g') ->
          { Prog.vname = alias; vty = g'.gty; vdims = g'.gdims; vkind = Kglobal g' }
        | None ->
          { Prog.vname = "@g:" ^ key; vty = g.gty; vdims = g.gdims; vkind = Kglobal g }
      in
      (key, var))
    globals

(* ------------------------------------------------------------------ *)
(* IR construction.                                                     *)

(** Build the IR of one procedure up to SSA.

    [modref] drives the call-kill sets: a call (re)defines the scalar
    by-reference actuals bound to modified formals and the modified scalar
    globals. *)
let rec build_ir (facts : facts) ~(modref : Modref.t) (proc : Prog.proc) :
    proc_ssa =
  Ipcp_telemetry.Telemetry.span ("build_ir:" ^ proc.pname) (fun () ->
      Ipcp_telemetry.Telemetry.incr "jf.build_ir";
      build_ir_timed facts ~modref proc)

and build_ir_timed facts ~(modref : Modref.t) (proc : Prog.proc) : proc_ssa =
  (* data-initialized storage holds its load-time value on entry to the
     main program (and nothing has run before main) *)
  let entry_const =
    if proc.pkind = Prog.Pmain then
      let main_data = facts.f_main_data in
      fun (v : Prog.var) ->
        if Prog.is_scalar v && v.vty = Prog.Tint then main_data v else None
    else fun _ -> None
  in
  let cfg = Lower.lower_proc ~next_expr_id:facts.f_expr_ceiling proc in
  let dom = Dom.compute cfg in
  let global_vars = global_vars_for facts.f_globals proc in
  let scalar_globals =
    List.filter (fun (_, (v : Prog.var)) -> Prog.is_scalar v) global_vars
  in
  let call_defs (c : Cfg.call) : Prog.var list =
    let by_ref =
      List.mapi (fun pos (a : Prog.expr) -> (pos, a)) c.c_args
      |> List.filter_map (fun (pos, (a : Prog.expr)) ->
             match a.edesc with
             | Prog.Evar v
               when Prog.is_scalar v && Modref.modifies_formal modref c.c_callee pos
               ->
               Some v
             | _ -> None)
    in
    let globals =
      List.filter_map
        (fun (key, v) ->
          if Modref.modifies_global modref c.c_callee key then Some v else None)
        scalar_globals
    in
    by_ref @ globals
  in
  let call_uses (_ : Cfg.call) : Prog.var list = List.map snd scalar_globals in
  {
    ps_proc = proc;
    ps_cfg = cfg;
    ps_dom = dom;
    ps_ssa = Ssa.build ~call_defs ~call_uses proc cfg dom;
    ps_global_vars = global_vars;
    ps_entry_const = entry_const;
  }

(** The IR bundle over [ps], with fresh symbolic values that evaluate
    calls through [oracle].  Fresh, because the values memoize oracle
    answers: values shared between a stage that ran before its oracle's
    table was complete and one that runs after would answer stale. *)
let with_oracle ?oracle (ps : proc_ssa) : proc_ir =
  {
    pi_proc = ps.ps_proc;
    pi_cfg = ps.ps_cfg;
    pi_dom = ps.ps_dom;
    pi_ssa = ps.ps_ssa;
    pi_sv = Ssa_value.create ?oracle ~entry_const:ps.ps_entry_const ps.ps_ssa;
    pi_global_vars = ps.ps_global_vars;
    pi_entry_const = ps.ps_entry_const;
  }

(** An oracle that evaluates return jump functions from [table].
    Only constant entry values participate (paper §3.2). *)
let oracle_of_table (table : (string, ret_jf) Hashtbl.t) : Ssa_value.oracle =
 fun call target lookup ->
  Ipcp_telemetry.Telemetry.incr "jf.ret_oracle.evals";
  match Hashtbl.find_opt table call.Cfg.c_callee with
  | None -> None
  | Some rj ->
    let sym =
      match target with
      | Ssa_value.Tresult -> rj.rj_result
      | Ssa_value.Tformal i ->
        Int_map.find_opt i rj.rj_formals |> Option.value ~default:Symbolic.unknown
      | Ssa_value.Tglobal k ->
        Str_map.find_opt k rj.rj_globals |> Option.value ~default:Symbolic.unknown
    in
    Symbolic.eval ~env:lookup sym

(* ------------------------------------------------------------------ *)
(* Return jump function construction (bottom-up pass).                  *)

(* Meet of symbolic values across all procedure exits. *)
let meet_exit_syms (pi : proc_ir) name : Symbolic.t =
  match Ssa.exits pi.pi_ssa with
  | [] -> Symbolic.unknown (* no reachable exit *)
  | exits ->
    let syms =
      List.map (fun (b, _) -> Ssa_value.sym_at_exit pi.pi_sv ~block:b name) exits
    in
    (match syms with
    | [] -> Symbolic.unknown
    | s0 :: rest ->
      if Symbolic.is_unknown s0 then Symbolic.unknown
      else if List.for_all (Symbolic.equal s0) rest then s0
      else Symbolic.unknown)

(** Build the return jump functions of one procedure from its IR.

    Without MOD information ([Modref.worst_case]) there is no "set of
    formals/globals p may modify" to attach return jump functions to, and
    the paper's no-MOD configuration loses values across every call site;
    only the function-result jump function survives in that mode. *)
let build_ret_jf ~(modref : Modref.t) (pi : proc_ir) : ret_jf =
  Ipcp_telemetry.Telemetry.incr "jf.ret_jf.built";
  let proc = pi.pi_proc in
  let result =
    match proc.presult with
    | Some rv when rv.vty = Prog.Tint -> meet_exit_syms pi rv.vname
    | Some _ | None -> Symbolic.unknown
  in
  if Modref.is_worst_case modref then { empty_ret_jf with rj_result = result }
  else
  let formals =
    List.fold_left
      (fun acc (v : Prog.var) ->
        match v.vkind with
        | Prog.Kformal i
          when Prog.is_scalar v && v.vty = Prog.Tint
               && Modref.modifies_formal modref proc.pname i ->
          Int_map.add i (meet_exit_syms pi v.vname) acc
        | _ -> acc)
      Int_map.empty proc.pformals
  in
  let globals =
    List.fold_left
      (fun acc (key, (v : Prog.var)) ->
        if
          Prog.is_scalar v && v.vty = Prog.Tint
          && Modref.modifies_global modref proc.pname key
        then Str_map.add key (meet_exit_syms pi v.vname) acc
        else acc)
      Str_map.empty pi.pi_global_vars
  in
  { rj_result = result; rj_formals = formals; rj_globals = globals }

(* ------------------------------------------------------------------ *)
(* Cost metrics (paper §3.1.5).                                         *)

(** Total size of all jump-function expressions at a site (construction /
    evaluation cost proxy). *)
let site_cost (s : site_jf) =
  Array.fold_left (fun acc jf -> acc + Symbolic.size jf) 0 s.sf_formals
  + List.fold_left (fun acc (_, jf) -> acc + Symbolic.size jf) 0 s.sf_globals

(** Total support size (the polynomial propagation bound involves
    |support(J)|). *)
let site_support (s : site_jf) =
  let leaf_count jf =
    match Symbolic.support jf with Some ls -> List.length ls | None -> 0
  in
  Array.fold_left (fun acc jf -> acc + leaf_count jf) 0 s.sf_formals
  + List.fold_left (fun acc (_, jf) -> acc + leaf_count jf) 0 s.sf_globals

(* ------------------------------------------------------------------ *)
(* Forward jump function construction.                                  *)

(* Restrict a full symbolic value to what a given jump-function kind can
   express. *)
let restrict kind (sym : Symbolic.t) : Symbolic.t =
  match kind with
  | Polynomial -> sym
  | Passthrough -> (
    match sym with
    | Symbolic.Const _ | Symbolic.Leaf _ -> sym
    | _ -> Symbolic.unknown)
  | Intraconst -> if Symbolic.is_const sym then sym else Symbolic.unknown
  | Literal -> assert false (* handled separately: no symbolic evaluation *)

(** Build the forward jump functions for every call site of a procedure. *)
let build_site_jfs ~kind (pi : proc_ir) : site_jf list =
  let cfg = pi.pi_cfg in
  let sites = ref [] in
  Array.iteri
    (fun b arr ->
      if Dom.is_reachable pi.pi_dom b then
        Array.iteri
          (fun i instr ->
            match (instr : Cfg.instr) with
            | Cfg.Icall c ->
              let formal_jf pos (a : Prog.expr) : Symbolic.t =
                match kind with
                | Literal -> (
                  match a.edesc with
                  | Prog.Cint n -> Symbolic.const n
                  | _ -> Symbolic.unknown)
                | Intraconst | Passthrough | Polynomial ->
                  ignore pos;
                  restrict kind (Ssa_value.sym_of_expr pi.pi_sv ~block:b ~instr:i a)
              in
              let formals = Array.of_list (List.mapi formal_jf c.c_args) in
              let globals =
                match kind with
                | Literal ->
                  (* literal jump functions miss implicitly-passed globals *)
                  List.map (fun (key, _) -> (key, Symbolic.unknown)) pi.pi_global_vars
                | Intraconst | Passthrough | Polynomial ->
                  List.map
                    (fun (key, (v : Prog.var)) ->
                      if not (Prog.is_scalar v) || v.vty <> Prog.Tint then
                        (key, Symbolic.unknown)
                      else
                        let sym =
                          match Ssa.use_at pi.pi_ssa b i v.vname with
                          | Some n -> Ssa_value.sym_of_name pi.pi_sv n
                          | None -> Symbolic.unknown
                        in
                        (key, restrict kind sym))
                    pi.pi_global_vars
              in
              sites :=
                {
                  sf_caller = cfg.proc_name;
                  sf_callee = c.c_callee;
                  sf_site = c.c_site;
                  sf_formals = formals;
                  sf_globals = globals;
                }
                :: !sites
            | Cfg.Iassign _ | Cfg.Iastore _ | Cfg.Iread_scalar _
            | Cfg.Iread_elem _ | Cfg.Iprint _ ->
              ())
          arr)
    pi.pi_ssa.Ssa.instrs;
  let sites = List.rev !sites in
  if Ipcp_telemetry.Telemetry.enabled () then begin
    Ipcp_telemetry.Telemetry.add
      ("jf.sites." ^ kind_name kind)
      (List.length sites);
    List.iter
      (fun s -> Ipcp_telemetry.Telemetry.observe "jf.site_cost" (site_cost s))
      sites
  end;
  sites

let pp_site ppf (s : site_jf) =
  Fmt.pf ppf "%s -> %s @@%d: formals=[%a]" s.sf_caller s.sf_callee s.sf_site
    (Fmt.list ~sep:(Fmt.any "; ") Symbolic.pp)
    (Array.to_list s.sf_formals)
