(** Static single assignment form over the CFG (Cytron et al.).

    Rather than rewriting instructions, the construction produces *side
    tables*: every scalar definition point (procedure entry, phi node, or
    instruction) gets an SSA name, and every instruction/terminator records
    which SSA name each of its variable uses resolves to.  Downstream
    consumers — symbolic evaluation ({!Ipcp_analysis.Ssa_value}), SCCP and
    the substitution pass — navigate these tables.

    Calls are definition points: a call redefines its scalar by-reference
    actuals and the scalar globals the callee may modify.  That set depends
    on interprocedural MOD information, which is supplied by the caller as
    the [call_defs] function (the "no MOD information" configuration of the
    paper simply passes a worst-case function). *)

open Ipcp_frontend

type ssa_name = int

type def_site =
  | Dentry  (** live on entry: formal, global, or undefined local *)
  | Dphi of int  (** phi node in this block *)
  | Dinstr of int * int  (** block id, instruction index *)

type def_info = { d_var : Prog.var; d_site : def_site }

type phi = {
  p_var : string;
  mutable p_dest : ssa_name;
  mutable p_args : (int * ssa_name) list;  (** predecessor block → version *)
}

type instr_info = {
  ii_uses : (string * ssa_name) list;
  ii_defs : (string * ssa_name) list;
}

type t = {
  cfg : Cfg.t;
  dom : Dom.t;
  proc : Prog.proc;
  defs : def_info array;  (** indexed by SSA name *)
  phis : phi list array;  (** per block *)
  instrs : Cfg.instr array array;  (** per block, for indexed access *)
  info : instr_info array array;  (** parallel to [instrs] *)
  term_uses : (string * ssa_name) list array;
  entry_names : (string * ssa_name) list;  (** version 0 of every variable *)
  exit_versions : (int * (string * ssa_name) list) list;
      (** for each return/stop block: versions of all variables at its end *)
}

let def t (n : ssa_name) = t.defs.(n)

let var_of t n = t.defs.(n).d_var

(** The entry SSA name of a variable, if it is a tracked scalar. *)
let entry_name t name = List.assoc_opt name t.entry_names

let instr_at t b i = t.instrs.(b).(i)

let info_at t b i = t.info.(b).(i)

(** Resolve a use of [name] within instruction [(b,i)]. *)
let use_at t b i name = List.assoc_opt name t.info.(b).(i).ii_uses

(* ------------------------------------------------------------------ *)
(* Construction.                                                        *)

(* All scalar variables of the procedure body, keyed by name.  [call_defs]
   and [call_uses] give each instruction's call effects, by block and
   index. *)
let collect_vars (cfg : Cfg.t) (proc : Prog.proc) ~call_defs ~call_uses :
    (string, Prog.var) Hashtbl.t =
  let vars = Hashtbl.create 32 in
  let add (v : Prog.var) =
    if Prog.is_scalar v && not (Hashtbl.mem vars v.vname) then
      Hashtbl.replace vars v.vname v
  in
  List.iter add proc.pformals;
  Option.iter add proc.presult;
  List.iter add proc.plocals;
  List.iter
    (fun (alias, (g : Prog.global)) ->
      add { Prog.vname = alias; vty = g.gty; vdims = g.gdims; vkind = Kglobal g })
    proc.pglobals;
  (* temps and any variable mentioned in the CFG *)
  Array.iteri
    (fun b (blk : Cfg.block) ->
      List.iteri
        (fun i instr ->
          List.iter add (Cfg.instr_uses instr);
          List.iter add (Cfg.instr_direct_defs instr);
          List.iter add call_defs.(b).(i);
          List.iter add call_uses.(b).(i))
        blk.b_instrs;
      List.iter add (Cfg.term_uses blk.b_term))
    cfg.blocks;
  vars

(** Build SSA tables.

    [call_defs c] lists the scalar variables call [c] may (re)define beyond
    its direct result — by-reference actuals and globals in the callee's MOD
    set (or a worst-case superset when MOD information is disabled).

    [call_uses c] lists extra scalar variables whose *reaching version* must
    be recorded among the call instruction's uses even though they do not
    appear in its argument expressions — the jump-function generator asks
    for the version of every common global live at each call site. *)
let build ?(call_defs = fun (_ : Cfg.call) -> ([] : Prog.var list))
    ?(call_uses = fun (_ : Cfg.call) -> ([] : Prog.var list))
    (proc : Prog.proc) (cfg : Cfg.t) (dom : Dom.t) : t =
  let nblocks = Cfg.num_blocks cfg in
  let instrs = Array.map (fun (b : Cfg.block) -> Array.of_list b.b_instrs) cfg.blocks in
  (* the scalar call effects of every instruction, asked for once: the
     callers' [call_defs] consult MOD summaries *)
  let call_effects f =
    Array.map
      (Array.map (function
        | Cfg.Icall c -> List.filter Prog.is_scalar (f c)
        | Cfg.Iassign _ | Cfg.Iastore _ | Cfg.Iread_scalar _
        | Cfg.Iread_elem _ | Cfg.Iprint _ ->
          []))
      instrs
  in
  let extra_defs = call_effects call_defs and extra_uses = call_effects call_uses in
  let vars = collect_vars cfg proc ~call_defs:extra_defs ~call_uses:extra_uses in
  (* scalar defs and uses of an instruction, including call effects *)
  let all_defs b i = Cfg.instr_direct_defs instrs.(b).(i) @ extra_defs.(b).(i) in
  let all_uses b i = Cfg.instr_uses instrs.(b).(i) @ extra_uses.(b).(i) in
  (* -------- phi placement: iterated dominance frontier per variable ---- *)
  let def_blocks : (string, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let add_def_block name b =
    match Hashtbl.find_opt def_blocks name with
    | Some l -> if not (List.mem b !l) then l := b :: !l
    | None -> Hashtbl.replace def_blocks name (ref [ b ])
  in
  Hashtbl.iter (fun name _ -> add_def_block name cfg.entry) vars;
  Array.iteri
    (fun bi arr ->
      if Dom.is_reachable dom bi then
        Array.iteri
          (fun i _ ->
            List.iter (fun (v : Prog.var) -> add_def_block v.vname bi) (all_defs bi i))
          arr)
    instrs;
  (* Each variable's iterated dominance frontier.  The arrays are shared
     by all variables and stamped with the variable's number: [queued]
     marks the blocks already put on [stack] for it, [placed] the blocks
     already given its phi.  A block is queued at most once per variable,
     so [stack] never holds more than [nblocks]. *)
  let phi_vars = Array.make nblocks ([] : string list) in
  let queued = Array.make nblocks (-1) and placed = Array.make nblocks (-1) in
  let stack = Array.make nblocks 0 and depth = ref 0 in
  let stamp = ref 0 in
  Hashtbl.iter
    (fun name blocks ->
      let s = !stamp in
      incr stamp;
      let queue b =
        if queued.(b) <> s then begin
          queued.(b) <- s;
          stack.(!depth) <- b;
          incr depth
        end
      in
      List.iter queue !blocks;
      while !depth > 0 do
        decr depth;
        List.iter
          (fun f ->
            if placed.(f) <> s then begin
              placed.(f) <- s;
              phi_vars.(f) <- name :: phi_vars.(f);
              queue f
            end)
          dom.frontier.(stack.(!depth))
      done)
    def_blocks;
  (* -------- renaming ------------------------------------------------- *)
  let defs : def_info list ref = ref [] in
  let ndefs = ref 0 in
  let new_name (v : Prog.var) site : ssa_name =
    let n = !ndefs in
    incr ndefs;
    defs := { d_var = v; d_site = site } :: !defs;
    n
  in
  let stacks : (string, ssa_name list ref) Hashtbl.t = Hashtbl.create 32 in
  let stack name =
    match Hashtbl.find_opt stacks name with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks name s;
      s
  in
  let top name =
    match !(stack name) with
    | n :: _ -> n
    | [] -> assert false (* every var has an entry version *)
  in
  let entry_names =
    Hashtbl.fold
      (fun name v acc ->
        let n = new_name v Dentry in
        (stack name) := [ n ];
        (name, n) :: acc)
      vars []
    |> List.sort compare
  in
  (* Phi records must exist before renaming starts: a predecessor fills its
     successors' phi arguments when *it* is renamed, which can happen before
     the successor block itself is visited. *)
  let phis =
    Array.init nblocks (fun b ->
        List.map
          (fun name -> { p_var = name; p_dest = -1; p_args = [] })
          (List.sort compare phi_vars.(b)))
  in
  let info = Array.map (fun arr -> Array.make (Array.length arr) { ii_uses = []; ii_defs = [] }) instrs in
  let term_uses_tbl = Array.make nblocks ([] : (string * ssa_name) list) in
  let exit_versions = ref [] in
  let uniq_names vs =
    List.sort_uniq compare (List.map (fun (v : Prog.var) -> v.vname) vs)
  in
  let rec rename b =
    let pushed = ref [] in
    let push_version (v : Prog.var) site =
      let n = new_name v site in
      let s = stack v.vname in
      s := n :: !s;
      pushed := v.vname :: !pushed;
      n
    in
    (* phis: assign destination versions *)
    List.iter
      (fun (p : phi) ->
        let v = Hashtbl.find vars p.p_var in
        p.p_dest <- push_version v (Dphi b))
      phis.(b);
    (* instructions *)
    Array.iteri
      (fun i _ ->
        let uses =
          List.map (fun name -> (name, top name)) (uniq_names (all_uses b i))
        in
        let dlist =
          List.map
            (fun (v : Prog.var) -> (v.vname, push_version v (Dinstr (b, i))))
            (List.sort_uniq
               (fun (a : Prog.var) b -> compare a.vname b.vname)
               (all_defs b i))
        in
        info.(b).(i) <- { ii_uses = uses; ii_defs = dlist })
      instrs.(b);
    (* terminator *)
    let tuses =
      List.map (fun name -> (name, top name))
        (uniq_names (Cfg.term_uses cfg.blocks.(b).b_term))
    in
    term_uses_tbl.(b) <- tuses;
    (match cfg.blocks.(b).b_term with
    | Cfg.Treturn | Cfg.Tstop ->
      let snapshot =
        Hashtbl.fold (fun name _ acc -> (name, top name) :: acc) vars []
        |> List.sort compare
      in
      exit_versions := (b, snapshot) :: !exit_versions
    | Cfg.Tgoto _ | Cfg.Tbranch _ -> ());
    (* fill phi args in successors *)
    List.iter
      (fun s ->
        List.iter
          (fun (p : phi) -> p.p_args <- (b, top p.p_var) :: p.p_args)
          phis.(s))
      (Cfg.successors cfg b);
    (* recurse over dominator-tree children *)
    List.iter rename dom.children.(b);
    (* pop *)
    List.iter
      (fun name ->
        let s = stack name in
        match !s with _ :: rest -> s := rest | [] -> assert false)
      !pushed
  in
  rename cfg.entry;
  (* Phis in unreachable blocks don't exist (placement only used reachable
     defs), and rename only visited reachable blocks. *)
  let defs_arr = Array.of_list (List.rev !defs) in
  {
    cfg;
    dom;
    proc;
    defs = defs_arr;
    phis;
    instrs;
    info;
    term_uses = term_uses_tbl;
    entry_names;
    exit_versions = !exit_versions;
  }

(** All phis of a block. *)
let phis_of t b = t.phis.(b)

let num_names t = Array.length t.defs

(** SSA versions of every variable at each [return]/[stop] block. *)
let exits t = t.exit_versions

let pp ppf t =
  Fmt.pf ppf "ssa %s: %d names@." t.cfg.proc_name (num_names t);
  Array.iteri
    (fun b blk_phis ->
      if blk_phis <> [] || Array.length t.instrs.(b) > 0 then begin
        Fmt.pf ppf "B%d:@." b;
        List.iter
          (fun p ->
            Fmt.pf ppf "  %s_%d := phi(%a)@." p.p_var p.p_dest
              (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (blk, n) ->
                   Fmt.pf ppf "B%d:%d" blk n))
              p.p_args)
          blk_phis;
        Array.iteri
          (fun i instr ->
            Fmt.pf ppf "  %a   uses=%a defs=%a@." Cfg.pp_instr instr
              (Fmt.list ~sep:(Fmt.any " ") (fun ppf (nm, n) ->
                   Fmt.pf ppf "%s_%d" nm n))
              t.info.(b).(i).ii_uses
              (Fmt.list ~sep:(Fmt.any " ") (fun ppf (nm, n) ->
                   Fmt.pf ppf "%s_%d" nm n))
              t.info.(b).(i).ii_defs)
          t.instrs.(b)
      end)
    t.phis
