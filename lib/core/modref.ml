(** Interprocedural MOD/REF summary information.

    For every procedure we compute flow-insensitive side-effect summaries in
    the style of Cooper–Kennedy:
    - [mod_formals]: formal positions whose (by-reference) actual may be
      modified by a call to the procedure;
    - [mod_globals] / [ref_globals]: common globals the procedure may write /
      read, directly or through calls.

    Direct effects are collected from assignments, [read] statements and
    [do]-loop variables; the interprocedural closure translates callee
    effects through the formal↔actual binding at each call site, one
    strongly connected component at a time, callees first, iterating
    within a component until it is stable (handling recursion).  A
    rewritten program closes again only the components an edit can
    reach ({!compute_reusing}).

    The paper found MOD information decisive: without it, value numbering
    must kill every by-reference actual and every global at every call site
    (Table 3, column 1). *)

open Ipcp_frontend
module Int_set = Set.Make (Int)
module Str_set = Set.Make (String)

type summary = {
  mod_formals : Int_set.t;
  mod_globals : Str_set.t;
  ref_globals : Str_set.t;
}

let empty_summary =
  {
    mod_formals = Int_set.empty;
    mod_globals = Str_set.empty;
    ref_globals = Str_set.empty;
  }

type t = {
  summaries : (string, summary) Hashtbl.t;
  direct : (string, summary) Hashtbl.t;
      (** each procedure's direct effects, which the next round copies *)
  mod_changed : string list option;
      (** the procedures whose MOD footprint differs from the round this
          one was computed from; [None] when computed from scratch *)
  worst_case : bool;  (** true when built by {!worst_case} *)
}

let summary t name =
  Hashtbl.find_opt t.summaries name |> Option.value ~default:empty_summary

let is_worst_case t = t.worst_case

(** Does a call to [callee] possibly modify its [i]-th formal? *)
let modifies_formal t callee i =
  t.worst_case || Int_set.mem i (summary t callee).mod_formals

(** Does a call to [callee] possibly modify global [key]? *)
let modifies_global t callee key =
  t.worst_case || Str_set.mem key (summary t callee).mod_globals

(* ------------------------------------------------------------------ *)
(* Direct effects.                                                     *)

let direct_effects (proc : Prog.proc) : summary =
  let mod_formals = ref Int_set.empty in
  let mod_globals = ref Str_set.empty in
  let ref_globals = ref Str_set.empty in
  let write (v : Prog.var) =
    match v.vkind with
    | Prog.Kformal i -> mod_formals := Int_set.add i !mod_formals
    | Prog.Kglobal g -> mod_globals := Str_set.add (Prog.global_key g) !mod_globals
    | Prog.Klocal | Prog.Kresult -> ()
  in
  let read (v : Prog.var) =
    match v.vkind with
    | Prog.Kglobal g -> ref_globals := Str_set.add (Prog.global_key g) !ref_globals
    | Prog.Kformal _ | Prog.Klocal | Prog.Kresult -> ()
  in
  let lhs = function
    | Prog.Lvar v -> write v
    | Prog.Larr (v, _) -> write v
  in
  Prog.iter_exprs
    (fun e ->
      match e.edesc with
      | Prog.Evar v | Prog.Earr (v, _) -> read v
      | _ -> ())
    proc.pbody;
  Prog.iter_stmts
    (fun s ->
      match s.sdesc with
      | Prog.Sassign (l, _) -> lhs l
      | Prog.Sread ls -> List.iter lhs ls
      | Prog.Sdo (v, _, _, _, _) -> write v
      | Prog.Scall _ | Prog.Sif _ | Prog.Sdowhile _ | Prog.Sgoto _
      | Prog.Scontinue | Prog.Sreturn | Prog.Sstop | Prog.Sprint _ ->
        ())
    proc.pbody;
  { mod_formals = !mod_formals; mod_globals = !mod_globals; ref_globals = !ref_globals }

(* ------------------------------------------------------------------ *)
(* Interprocedural closure.                                            *)

let mod_equal (a : summary) (b : summary) =
  a == b
  || Int_set.equal a.mod_formals b.mod_formals
     && Str_set.equal a.mod_globals b.mod_globals

let summary_equal a b = mod_equal a b && Str_set.equal a.ref_globals b.ref_globals

(* [acc] extended with what a call along [e] does, given the callee's
   summary: globals flow through unchanged, formal effects translate
   through the actual bindings. *)
let through_call (acc : summary) (e : Callgraph.edge) (callee_sum : summary) =
  let acc =
    {
      acc with
      mod_globals = Str_set.union acc.mod_globals callee_sum.mod_globals;
      ref_globals = Str_set.union acc.ref_globals callee_sum.ref_globals;
    }
  in
  List.fold_left
    (fun (acc : summary) (pos, (arg : Prog.expr)) ->
      if not (Int_set.mem pos callee_sum.mod_formals) then acc
      else
        match arg.edesc with
        | Prog.Evar v | Prog.Earr (v, _) -> (
          match v.vkind with
          | Prog.Kformal i ->
            { acc with mod_formals = Int_set.add i acc.mod_formals }
          | Prog.Kglobal g ->
            {
              acc with
              mod_globals = Str_set.add (Prog.global_key g) acc.mod_globals;
            }
          | Prog.Klocal | Prog.Kresult -> acc)
        | _ -> acc (* expression actual: callee writes a temp *))
    acc
    (List.mapi (fun i a -> (i, a)) e.e_site.cs_args)

(* Close one SCC: its members restart from their direct effects and take
   in their callees' current summaries until nothing changes.  Callees
   outside the SCC are final (SCCs are visited callees first), so one
   pass settles a member that does not call itself. *)
let close_scc (cg : Callgraph.t) summaries direct members =
  List.iter
    (fun m -> Hashtbl.replace summaries m (Hashtbl.find direct m))
    members;
  let update name =
    let current = Hashtbl.find summaries name in
    let updated =
      List.fold_left
        (fun acc (e : Callgraph.edge) ->
          through_call acc e (Hashtbl.find summaries e.e_callee))
        current
        (Callgraph.callees_of cg name)
    in
    (not (summary_equal current updated))
    && begin
         Hashtbl.replace summaries name updated;
         true
       end
  in
  match members with
  | [ m ]
    when not
           (List.exists
              (fun (e : Callgraph.edge) -> e.e_callee = m)
              (Callgraph.callees_of cg m)) ->
    ignore (update m)
  | _ ->
    let rec settle () =
      if List.fold_left (fun moved m -> update m || moved) false members then
        settle ()
    in
    settle ()

(* The summaries of [cg]'s program, bottom-up over its SCCs.  With
   [reuse = (prev, unchanged)], an [unchanged] procedure copies its
   direct effects and summary from [prev], and an SCC is closed again
   only when it holds a procedure that is not [unchanged] or calls one
   whose summary came out different from [prev]'s: otherwise its members'
   equations and inputs are [prev]'s, and so is their least solution.
   The table is filled in program order, as from scratch. *)
let compute_with ?reuse (cg : Callgraph.t) : t =
  let direct = Hashtbl.create 16 and summaries = Hashtbl.create 16 in
  let dirty = Array.make (List.length cg.Callgraph.sccs) false in
  let mark name = dirty.(Hashtbl.find cg.scc_index name) <- true in
  let copied = ref 0 and computed = ref 0 in
  List.iter
    (fun (p : Prog.proc) ->
      let name = p.pname in
      let prev_effects =
        match reuse with
        | Some (prev, unchanged) when unchanged name -> (
          match
            ( Hashtbl.find_opt prev.direct name,
              Hashtbl.find_opt prev.summaries name )
          with
          | Some d, Some s -> Some (d, s)
          | _ -> None)
        | Some _ | None -> None
      in
      match prev_effects with
      | Some (d, s) ->
        incr copied;
        Hashtbl.replace direct name d;
        Hashtbl.replace summaries name s
      | None ->
        incr computed;
        let d = direct_effects p in
        Hashtbl.replace direct name d;
        Hashtbl.replace summaries name d;
        mark name)
    cg.prog.procs;
  let changed = ref [] and closed = ref 0 in
  List.iteri
    (fun i members ->
      if dirty.(i) then begin
        incr closed;
        close_scc cg summaries direct members;
        match reuse with
        | None -> ()
        | Some (prev, _) ->
          List.iter
            (fun m ->
              let before = summary prev m
              and after = Hashtbl.find summaries m in
              if not (summary_equal before after) then begin
                if not (mod_equal before after) then changed := m :: !changed;
                List.iter
                  (fun (e : Callgraph.edge) -> mark e.e_caller)
                  (Callgraph.callers_of cg m)
              end)
            members
      end)
    cg.sccs;
  let open Ipcp_telemetry.Telemetry in
  add "modref.effects_copied" !copied;
  add "modref.effects_computed" !computed;
  add "modref.sccs_closed" !closed;
  {
    summaries;
    direct;
    mod_changed = Option.map (fun _ -> !changed) reuse;
    worst_case = false;
  }

(** Compute full MOD/REF summaries for every procedure of the program. *)
let compute (cg : Callgraph.t) : t =
  Ipcp_telemetry.Telemetry.span "modref" (fun () -> compute_with cg)

let compute_reusing ~prev ~unchanged (cg : Callgraph.t) : t =
  Ipcp_telemetry.Telemetry.span "modref" (fun () ->
      compute_with ~reuse:(prev, unchanged) cg)

let mod_changes t = if t.worst_case then Some [] else t.mod_changed

(** The "no MOD information" configuration: every call is assumed to modify
    every by-reference actual and every global (paper Table 3, column 1). *)
let worst_case (cg : Callgraph.t) : t =
  ignore cg;
  {
    summaries = Hashtbl.create 1;
    direct = Hashtbl.create 1;
    mod_changed = None;
    worst_case = true;
  }

let pp ppf (t : t) =
  if t.worst_case then Fmt.string ppf "<worst case: everything modified>"
  else
    Hashtbl.iter
      (fun name s ->
        Fmt.pf ppf "%s: mod-formals={%a} mod-globals={%a} ref-globals={%a}@."
          name
          (Fmt.list ~sep:(Fmt.any ",") Fmt.int)
          (Int_set.elements s.mod_formals)
          (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
          (Str_set.elements s.mod_globals)
          (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
          (Str_set.elements s.ref_globals))
      t.summaries
