(** Independent certification of a solved analysis.  See the interface
    for the obligation catalogue; the implementation rule is that every
    check re-derives what it needs from the program and the published
    artifacts through its own code path — never by calling the solver
    component it is checking. *)

open Ipcp_frontend
open Ipcp_analysis
open Ipcp_core
open Ipcp_interp
module Diagnostics = Ipcp_support.Diagnostics
module Fault = Ipcp_support.Fault
module Prng = Ipcp_support.Prng
module Telemetry = Ipcp_telemetry.Telemetry
module Worklist = Ipcp_support.Worklist

type violation = {
  v_code : string;
  v_proc : string;
  v_loc : Loc.t;
  v_msg : string;
}

type witness = Witnessed | Not_witnessed of string

type report = {
  violations : violation list;
  obligations : int;
  witness : witness;
}

let ok r = r.violations = []

(* ------------------------------------------------------------------ *)
(* The independent jump-function evaluator.                            *)

(* The certifier's second opinion on [Solver.eval_jf]: the same rule
   through a structurally independent code path (a recursive walk of the
   jump function instead of its support list), so a bug in either shows
   up as an [E-CERT-EDGE] disagreement.  The order of absorption mirrors
   the solver's: a bare leaf passes its fact on verbatim; otherwise an
   [Unknown] anywhere forces ⊥ (no support), then any ⊥ or copy input
   forces ⊥, then any ⊤ input forces ⊤ — even when a sibling subtree of
   constants would trap — and only an all-constant tree is arithmetic
   (where a trap means ⊥). *)
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

(* ------------------------------------------------------------------ *)
(* Locating things in the source.                                      *)

(* Location of a call site (statement id for [call], expression id for
   function calls), by scanning the caller's body. *)
let site_loc (proc : Prog.proc) (site : int) : Loc.t =
  let found = ref None in
  Prog.iter_stmts
    (fun s -> if s.sid = site && !found = None then found := Some s.sloc)
    proc.pbody;
  if !found = None then
    Prog.iter_exprs
      (fun e -> if e.eid = site && !found = None then found := Some e.eloc)
      proc.pbody;
  Option.value !found ~default:proc.ploc

let to_diagnostics (r : report) : Diagnostics.t =
  let d = Diagnostics.create () in
  List.iter
    (fun v ->
      Diagnostics.add d
        (Loc.diagnostic ~code:v.v_code v.v_loc
           (Fmt.str "%s: %s" v.v_proc v.v_msg)))
    r.violations;
  d

let pp_report ppf (r : report) =
  if ok r then
    Fmt.pf ppf "certified (%d obligations, execution %s)" r.obligations
      (match r.witness with
      | Witnessed -> "witnessed"
      | Not_witnessed why -> "not witnessed: " ^ why)
  else
    Fmt.pf ppf "%d violation(s) in %d obligations:@.%a"
      (List.length r.violations) r.obligations Diagnostics.pp
      (to_diagnostics r)

let default_configs : (string * Config.t) list =
  Config.table2_configs
  @ [
      ("polynomial+nomod", Config.polynomial_no_mod);
      ("polynomial+mod", Config.polynomial_with_mod);
      ("intraprocedural", Config.intraprocedural_only);
    ]

(* ------------------------------------------------------------------ *)
(* The obligations.                                                    *)

(* E-CERT-EDGE / E-CERT-ENTRY / E-CERT-INTRA: the VAL post-fixpoint. *)

let check_edges (t : Driver.t) ~add ~obligation =
  let solution = t.Driver.solution in
  let lat_env caller : Symbolic.leaf -> Copy_lattice.t = function
    | Symbolic.Lformal i -> Solver.lookup solution caller (Prog.Pformal i)
    | Symbolic.Lglobal k -> Solver.lookup solution caller (Prog.Pglob k)
  in
  let procs = Prog.proc_table t.Driver.prog in
  List.iter
    (fun (s : Jump_function.site_jf) ->
      (* rescanning the caller's body per site is quadratic in a
         procedure's call count: locate only a violating site *)
      let loc = lazy (site_loc (Hashtbl.find procs s.sf_caller) s.sf_site) in
      let env = lat_env s.sf_caller in
      let check param jf what =
        obligation ();
        let binding = Solver.lookup solution s.sf_callee param in
        let expected = certify_eval ~env jf in
        if not (Copy_lattice.le binding expected) then
          add ~code:"E-CERT-EDGE" ~proc:s.sf_callee ~loc:(Lazy.force loc)
            (Fmt.str
               "%s %s of %s holds %a, above the jump function %a of the \
                call in %s (independently evaluated to %a)"
               what
               (Prog.param_name t.Driver.prog
                  (Hashtbl.find procs s.sf_callee)
                  param)
               s.sf_callee Copy_lattice.pp binding Symbolic.pp jf s.sf_caller
               Copy_lattice.pp expected)
      in
      Array.iteri
        (fun pos jf -> check (Prog.Pformal pos) jf "formal")
        s.sf_formals;
      List.iter
        (fun (key, jf) -> check (Prog.Pglob key) jf "global")
        s.sf_globals)
    t.Driver.site_jfs

let check_entry (t : Driver.t) ~add ~obligation =
  let prog = t.Driver.prog in
  let solution = t.Driver.solution in
  let main = Prog.find_proc_exn prog prog.main in
  List.iteri
    (fun i (v : Prog.var) ->
      obligation ();
      let binding = Solver.lookup solution main.pname (Prog.Pformal i) in
      if not (Copy_lattice.le binding Copy_lattice.Bottom) then
        add ~code:"E-CERT-ENTRY" ~proc:main.pname ~loc:main.ploc
          (Fmt.str "main formal %s claims %a; nothing is known on entry"
             v.vname Copy_lattice.pp binding))
    main.pformals;
  (* the load-time values, from this module's own walk of the program
     rather than the facts the analysis seeded main with *)
  let main_data = Prog.main_data prog in
  List.iter
    (fun (g : Prog.global) ->
      let key = Prog.global_key g in
      obligation ();
      let binding = Solver.lookup solution main.pname (Prog.Pglob key) in
      let data =
        main_data
          { Prog.vname = g.gname; vty = g.gty; vdims = g.gdims;
            vkind = Kglobal g }
      in
      let seed = Solver.global_seed t.Driver.config.analysis ~data ~key in
      if not (Copy_lattice.le binding seed) then
        add ~code:"E-CERT-ENTRY" ~proc:main.pname ~loc:main.ploc
          (Fmt.str
             "global %s claims %a at main entry, above its load-time value %a"
             g.gname Copy_lattice.pp binding Copy_lattice.pp seed))
    (Prog.all_globals prog)

let check_intra (t : Driver.t) ~add ~obligation =
  List.iter
    (fun (p : Prog.proc) ->
      match Hashtbl.find_opt t.Driver.solution.Solver.vals p.pname with
      | None -> ()
      | Some m ->
        Prog.Param_map.iter
          (fun param v ->
            obligation ();
            if not (Copy_lattice.equal v Copy_lattice.Bottom) then
              add ~code:"E-CERT-INTRA" ~proc:p.pname ~loc:p.ploc
                (Fmt.str
                   "intraprocedural baseline claims %a for %s; it may claim \
                    nothing"
                   Copy_lattice.pp v
                   (Prog.param_name t.Driver.prog p param)))
          m)
    t.Driver.prog.procs

(* ------------------------------------------------------------------ *)
(* E-CERT-COVERAGE: no reachable call edge may lack a jump function.   *)

let check_coverage (t : Driver.t) ~add ~obligation =
  let prog = t.Driver.prog in
  let global_keys = List.map Prog.global_key (Prog.all_globals prog) in
  let by_site : (int, Jump_function.site_jf) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Jump_function.site_jf) -> Hashtbl.replace by_site s.sf_site s)
    t.Driver.site_jfs;
  List.iter
    (fun (p : Prog.proc) ->
      match Hashtbl.find_opt t.Driver.irs p.pname with
      | None ->
        add ~code:"E-CERT-COVERAGE" ~proc:p.pname ~loc:p.ploc
          "procedure has no IR bundle"
      | Some ir ->
        let cfg = ir.Jump_function.pi_cfg in
        (* independent reachability: plain DFS over the CFG, not the
           dominator-tree notion the jump-function builder used *)
        let reach = Ipcp_ir.Cfg.reachable cfg in
        Array.iteri
          (fun b (blk : Ipcp_ir.Cfg.block) ->
            if reach.(b) then
              List.iter
                (fun (instr : Ipcp_ir.Cfg.instr) ->
                  match instr with
                  | Ipcp_ir.Cfg.Icall c -> (
                    obligation ();
                    match Hashtbl.find_opt by_site c.c_site with
                    | None ->
                      add ~code:"E-CERT-COVERAGE" ~proc:p.pname ~loc:c.c_loc
                        (Fmt.str
                           "reachable call to %s (site %d) has no jump \
                            function"
                           c.c_callee c.c_site)
                    | Some s ->
                      if s.sf_caller <> p.pname || s.sf_callee <> c.c_callee
                      then
                        add ~code:"E-CERT-COVERAGE" ~proc:p.pname ~loc:c.c_loc
                          (Fmt.str
                             "jump function of site %d names %s→%s, the \
                              program says %s→%s"
                             c.c_site s.sf_caller s.sf_callee p.pname
                             c.c_callee);
                      if Array.length s.sf_formals <> List.length c.c_args
                      then
                        add ~code:"E-CERT-COVERAGE" ~proc:p.pname ~loc:c.c_loc
                          (Fmt.str
                             "site %d has %d actuals but %d formal jump \
                              functions"
                             c.c_site (List.length c.c_args)
                             (Array.length s.sf_formals));
                      List.iter
                        (fun key ->
                          if not (List.mem_assoc key s.sf_globals) then
                            add ~code:"E-CERT-COVERAGE" ~proc:p.pname
                              ~loc:c.c_loc
                              (Fmt.str
                                 "site %d has no jump function for global %s"
                                 c.c_site key))
                        global_keys)
                  | _ -> ())
                blk.b_instrs)
          cfg.blocks)
    prog.procs

(* ------------------------------------------------------------------ *)
(* E-CERT-MOD: published summaries contain the re-derived effects.     *)

(* Side effects re-derived straight from the resolved bodies: direct
   writes, then a worklist closure over the call sites the bodies hold
   ({!Prog.call_sites}, not the call graph): whenever a procedure's
   effects grow, the call sites that call it are translated again into
   their callers.  Deliberately a different algorithm than [Modref]'s,
   which closes one SCC of the call graph at a time, callees first.
   Each translation is counted in [certify.mod_translations]. *)
let rederive_effects (prog : Prog.t) :
    (string, Modref.Int_set.t * Modref.Str_set.t) Hashtbl.t =
  let eff : (string, Modref.Int_set.t ref * Modref.Str_set.t ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (p : Prog.proc) ->
      Hashtbl.replace eff p.pname
        (ref Modref.Int_set.empty, ref Modref.Str_set.empty))
    prog.procs;
  let write pname (v : Prog.var) =
    let formals, globals = Hashtbl.find eff pname in
    match v.vkind with
    | Prog.Kformal i -> formals := Modref.Int_set.add i !formals
    | Prog.Kglobal g ->
      globals := Modref.Str_set.add (Prog.global_key g) !globals
    | Prog.Klocal | Prog.Kresult -> ()
  in
  List.iter
    (fun (p : Prog.proc) ->
      Prog.iter_stmts
        (fun s ->
          match s.sdesc with
          | Prog.Sassign (l, _) | Prog.Sread [ l ] -> (
            match l with
            | Prog.Lvar v | Prog.Larr (v, _) -> write p.pname v)
          | Prog.Sread ls ->
            List.iter
              (function Prog.Lvar v | Prog.Larr (v, _) -> write p.pname v)
              ls
          | Prog.Sdo (v, _, _, _, _) -> write p.pname v
          | _ -> ())
        p.pbody)
    prog.procs;
  (* callee -> the call sites that call it, with their callers *)
  let sites_calling : (string, (string * Prog.call_site) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (p : Prog.proc) ->
      List.iter
        (fun (cs : Prog.call_site) ->
          let sites =
            Option.value ~default:[]
              (Hashtbl.find_opt sites_calling cs.cs_callee)
          in
          Hashtbl.replace sites_calling cs.cs_callee ((p.pname, cs) :: sites))
        (Prog.call_sites p))
    prog.procs;
  (* closure: translate callee effects through actual bindings; true
     when the caller's effects grew *)
  let translations = ref 0 in
  let translate caller (cs : Prog.call_site) =
    match Hashtbl.find_opt eff cs.cs_callee with
    | None -> false
    | Some (cf, cgl) ->
      incr translations;
      let formals, globals = Hashtbl.find eff caller in
      let before_f = !formals and before_g = !globals in
      globals := Modref.Str_set.union !globals !cgl;
      List.iteri
        (fun pos (a : Prog.expr) ->
          if Modref.Int_set.mem pos !cf then
            match a.edesc with
            | Prog.Evar v | Prog.Earr (v, _) -> write caller v
            | _ -> ())
        cs.cs_args;
      not
        (Modref.Int_set.equal !formals before_f
        && Modref.Str_set.equal !globals before_g)
  in
  let work =
    Worklist.of_list (List.map (fun (p : Prog.proc) -> p.pname) prog.procs)
  in
  Worklist.drain work (fun callee ->
      List.iter
        (fun (caller, cs) ->
          if translate caller cs then Worklist.push work caller)
        (Option.value ~default:[] (Hashtbl.find_opt sites_calling callee)));
  Telemetry.add "certify.mod_translations" !translations;
  let out = Hashtbl.create 16 in
  Hashtbl.iter (fun name (f, g) -> Hashtbl.replace out name (!f, !g)) eff;
  out

let check_mod (t : Driver.t) ~add ~obligation =
  let prog = t.Driver.prog in
  let effects = rederive_effects prog in
  List.iter
    (fun (p : Prog.proc) ->
      match Hashtbl.find_opt effects p.pname with
      | None -> ()
      | Some (formals, globals) ->
        Modref.Int_set.iter
          (fun i ->
            obligation ();
            if not (Modref.modifies_formal t.Driver.modref p.pname i) then
              add ~code:"E-CERT-MOD" ~proc:p.pname ~loc:p.ploc
                (Fmt.str
                   "formal %d may be modified (re-derived) but MOD says it \
                    is not"
                   i))
          formals;
        Modref.Str_set.iter
          (fun key ->
            obligation ();
            if not (Modref.modifies_global t.Driver.modref p.pname key) then
              add ~code:"E-CERT-MOD" ~proc:p.pname ~loc:p.ploc
                (Fmt.str
                   "global %s may be modified (re-derived) but MOD says it \
                    is not"
                   key))
          globals)
    prog.procs;
  (* return jump functions may only bind values MOD admits as modified
     (the function result aside) *)
  List.iter
    (fun (p : Prog.proc) ->
      match Hashtbl.find_opt t.Driver.ret_jfs p.pname with
      | None -> ()
      | Some rj ->
        Jump_function.Int_map.iter
          (fun i _ ->
            obligation ();
            if not (Modref.modifies_formal t.Driver.modref p.pname i) then
              add ~code:"E-CERT-MOD" ~proc:p.pname ~loc:p.ploc
                (Fmt.str
                   "return jump function binds formal %d outside the MOD set"
                   i))
          rj.Jump_function.rj_formals;
        Jump_function.Str_map.iter
          (fun key _ ->
            obligation ();
            if not (Modref.modifies_global t.Driver.modref p.pname key) then
              add ~code:"E-CERT-MOD" ~proc:p.pname ~loc:p.ploc
                (Fmt.str
                   "return jump function binds global %s outside the MOD set"
                   key))
          rj.Jump_function.rj_globals)
    prog.procs

(* ------------------------------------------------------------------ *)
(* E-CERT-EXEC: the interpreter as execution witness.                  *)

let check_exec (t : Driver.t) ~(sccps : (string * Sccp.result) list) ~fuel
    ~input ~add ~obligation : witness =
  let prog = t.Driver.prog in
  let main = Prog.find_proc_exn prog prog.main in
  (* claimed facts, keyed by program-wide expression id *)
  let expr_claims : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
  let cond_claims : (int, string * bool) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, (r : Sccp.result)) ->
      Hashtbl.iter
        (fun eid c -> Hashtbl.replace expr_claims eid (name, c))
        r.Sccp.expr_consts;
      Hashtbl.iter
        (fun eid b -> Hashtbl.replace cond_claims eid (name, b))
        r.Sccp.cond_consts)
    sccps;
  let eid_locs : (int, Loc.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (p : Prog.proc) ->
      Prog.iter_exprs (fun e -> Hashtbl.replace eid_locs e.eid e.eloc) p.pbody)
    prog.procs;
  let loc_of eid =
    Hashtbl.find_opt eid_locs eid |> Option.value ~default:main.ploc
  in
  (* one violation per expression id, however often it evaluates *)
  let flagged : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let flag eid proc msg =
    if not (Hashtbl.mem flagged eid) then begin
      Hashtbl.replace flagged eid ();
      add ~code:"E-CERT-EXEC" ~proc ~loc:(loc_of eid) msg
    end
  in
  let on_expr eid (v : Interp.value) =
    (match Hashtbl.find_opt expr_claims eid with
    | Some (pname, c) ->
      if not (Interp.equal_value v (Interp.Vint c)) then
        flag eid pname
          (Fmt.str
             "claimed constant use = %d but the program computed %a here" c
             Interp.pp_value v)
    | None -> ());
    match Hashtbl.find_opt cond_claims eid with
    | Some (pname, b) ->
      if not (Interp.equal_value v (Interp.Vbool b)) then
        flag eid pname
          (Fmt.str
             "claimed constant branch = %b but the program computed %a here"
             b Interp.pp_value v)
    | None -> ()
  in
  let res = Interp.run ~fuel ~input ~trace_entries:true ~on_expr prog in
  match res.Interp.outcome with
  | Interp.Out_of_fuel ->
    Not_witnessed (Fmt.str "out of fuel after %d steps" res.Interp.steps)
  | Interp.Failed msg -> Not_witnessed ("runtime error: " ^ msg)
  | Interp.Finished ->
    Hashtbl.iter (fun _ _ -> obligation ()) expr_claims;
    Hashtbl.iter (fun _ _ -> obligation ()) cond_claims;
    (* CONSTANTS entry facts vs actual entry snapshots *)
    let procs = Prog.proc_table prog in
    List.iter
      (fun (es : Interp.entry_snapshot) ->
        let proc = Hashtbl.find procs es.Interp.es_proc in
        List.iter
          (fun (param, c) ->
            obligation ();
            let actual =
              match param with
              | Prog.Pformal i -> List.assoc_opt i es.Interp.es_formals
              | Prog.Pglob key -> List.assoc_opt key es.Interp.es_globals
            in
            match actual with
            | Some (Some v) when not (Interp.equal_value v (Interp.Vint c)) ->
              add ~code:"E-CERT-EXEC" ~proc:es.Interp.es_proc ~loc:proc.ploc
                (Fmt.str "CONSTANTS claims %s = %d but an entry saw %a"
                   (Prog.param_name prog proc param)
                   c Interp.pp_value v)
            | _ -> ())
          (Solver.constants_of t.Driver.solution es.Interp.es_proc))
      res.Interp.entries;
    (* the substituted program must behave identically *)
    obligation ();
    let prog', _ = Substitute.apply t in
    let res' = Interp.run ~fuel ~input ~trace_entries:false prog' in
    (match res'.Interp.outcome with
    | Interp.Finished ->
      if res'.Interp.outputs <> res.Interp.outputs then
        add ~code:"E-CERT-EXEC" ~proc:main.pname ~loc:main.ploc
          "substituted program output diverges from the original"
    | Interp.Out_of_fuel ->
      add ~code:"E-CERT-EXEC" ~proc:main.pname ~loc:main.ploc
        "substituted program ran out of fuel while the original finished"
    | Interp.Failed msg ->
      add ~code:"E-CERT-EXEC" ~proc:main.pname ~loc:main.ploc
        (Fmt.str "substituted program failed (%s) while the original \
                  finished" msg));
    Witnessed

(* ------------------------------------------------------------------ *)
(* Deliberate corruption (the test-only hook).                         *)

(* A value no generated or hand-written test program uses, so a
   corrupted ⊥-binding never collides with a genuine constant. *)
let sentinel = 999983

(* Falsify one non-⊤ fact: the result is never ⊑ the argument.  [shift]
   adds seeded variety. *)
let corrupt_fact ~(shift : int) : Copy_lattice.t -> Copy_lattice.t = function
  | Copy_lattice.Bottom | Copy_lattice.Copy _ -> Copy_lattice.Const sentinel
  | Copy_lattice.Const c -> Copy_lattice.Const (c + 1 + shift)
  | Copy_lattice.Top -> assert false

let corrupt ~seed (t : Driver.t) : Driver.t option =
  let solution = t.Driver.solution in
  let reachable = Hashtbl.create 64 in
  List.iter
    (fun name -> Hashtbl.replace reachable name ())
    (Callgraph.reachable_from_main t.Driver.cg);
  (* candidates whose corruption a certifier must catch: ⊥/constant
     bindings of procedures that actually execute (⊤ bindings belong to
     never-called procedures — any claim there is vacuous) *)
  let candidates =
    List.concat_map
      (fun (p : Prog.proc) ->
        if not (Hashtbl.mem reachable p.pname) then []
        else
          match Hashtbl.find_opt solution.Solver.vals p.pname with
          | None -> []
          | Some m ->
            Prog.Param_map.fold
              (fun param v acc ->
                if Copy_lattice.equal v Copy_lattice.top then acc
                else (p.pname, param, v) :: acc)
              m []
            |> List.rev)
      t.Driver.prog.procs
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
    let prng = Prng.create seed in
    let pname, param, v = Prng.choose prng candidates in
    let corrupted = corrupt_fact ~shift:(Prng.range prng 0 7) v in
    let vals = Hashtbl.copy solution.Solver.vals in
    let m = Hashtbl.find vals pname in
    Hashtbl.replace vals pname (Prog.Param_map.add param corrupted m);
    (* the memos hold SCCP seeded from the uncorrupted solution, and
       the rewrites made from it *)
    Some
      {
        t with
        Driver.solution = { solution with Solver.vals };
        sccps = Hashtbl.create 16;
        substs = Hashtbl.create 16;
      }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let check ?(inject_fault = true) ?(fuel = Interp.default_fuel) ?(input = [])
    (t : Driver.t) : report =
  Telemetry.span "certify" @@ fun () ->
  let t =
    if not inject_fault then t
    else
      match Fault.corruption "certify.solution" with
      | None -> t
      | Some seed -> ( match corrupt ~seed t with Some t' -> t' | None -> t)
  in
  let violations = ref [] in
  let obligations = ref 0 in
  let add ~code ~proc ~loc msg =
    violations :=
      { v_code = code; v_proc = proc; v_loc = loc; v_msg = msg } :: !violations
  in
  let obligation () = incr obligations in
  (* one span per obligation family *)
  let family name check =
    Telemetry.span name (fun () -> check t ~add ~obligation)
  in
  if t.Driver.config.Config.interprocedural then begin
    family "edges" check_edges;
    family "entry" check_entry;
    family "coverage" check_coverage
  end
  else family "intra" check_intra;
  family "mod" check_mod;
  let entry_const (proc : Prog.proc) (v : Prog.var) : int option =
    if v.Prog.vty <> Prog.Tint || Prog.is_array v then None
    else
      match v.Prog.vkind with
      | Prog.Kformal i ->
        Copy_lattice.const_value
          (Solver.lookup t.Driver.solution proc.Prog.pname (Prog.Pformal i))
      | Prog.Kglobal g ->
        Copy_lattice.const_value
          (Solver.lookup t.Driver.solution proc.Prog.pname
             (Prog.Pglob (Prog.global_key g)))
      | Prog.Klocal | Prog.Kresult -> None
  in
  let sccps =
    Telemetry.span "sccp" (fun () ->
        let sccps =
          List.map
            (fun (p : Prog.proc) -> (p.pname, Driver.sccp_for t p.pname))
            t.Driver.prog.procs
        in
        Sccp_check.check t ~entry_const ~sccps ~add ~obligation;
        sccps)
  in
  let witness =
    Telemetry.span "exec" (fun () ->
        check_exec t ~sccps ~fuel ~input ~add ~obligation)
  in
  { violations = List.rev !violations; obligations = !obligations; witness }

let check_program ?fuel ?input ?(configs = default_configs) (prog : Prog.t) :
    (string * report) list =
  let artifacts = Driver.prepare prog in
  List.map
    (fun (label, config) ->
      (label, check ?fuel ?input (Driver.solve config artifacts)))
    configs
