(** Textual constant substitution — the paper's effectiveness metric.

    The analyzer "can produce a transformed version of the original source
    in which the interprocedural constants are textually substituted into
    the code.  The numbers reported … count the number of constants that
    this option substituted into each program" (paper §4.1, after Metzger &
    Stroud).

    A use of a scalar integer variable is substituted when SCCP — seeded
    with the CONSTANTS entry facts of the enclosing procedure — proves the
    use constant, and the use sits in a value context:
    - assignment left-hand sides, [read] targets and [do]-loop variables are
      definition contexts, never substituted (their subscripts are);
    - a by-reference actual is substituted only when the callee cannot
      modify the bound formal (otherwise the rewrite would change the
      program's meaning);
    - whole-array actuals are never substituted. *)

open Ipcp_frontend

type stats = {
  total : int;  (** uses substituted, summed over procedures *)
  by_proc : (string * int) list;
  sccp_degraded : string list;
      (** procedures whose SCCP pass exhausted its budget (program
          order); their counts are 0 — no unsound substitution happens *)
}

(** Substitute constants into one procedure given its SCCP result.
    Returns the rewritten procedure and the substitution count.  Only
    MOD summaries and the SCCP fact tables are consulted. *)
let apply_proc (t : Driver.t) (proc : Prog.proc)
    (sccp : Ipcp_analysis.Sccp.result) : Prog.proc * int =
  let count = ref 0 in
  let constant_of (e : Prog.expr) : int option =
    match e.edesc with
    | Prog.Evar v when Prog.is_scalar v && v.vty = Prog.Tint ->
      Hashtbl.find_opt sccp.expr_consts e.eid
    | _ -> None
  in
  let rec subst (e : Prog.expr) : Prog.expr =
    match constant_of e with
    | Some c ->
      incr count;
      { e with edesc = Prog.Cint c }
    | None -> (
      match e.edesc with
      | Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _ | Prog.Evar _
        ->
        e
      | Prog.Earr (v, idx) -> { e with edesc = Prog.Earr (v, List.map subst idx) }
      | Prog.Ecall (f, args) -> { e with edesc = Prog.Ecall (f, subst_args f args) }
      | Prog.Eintr (intr, args) ->
        { e with edesc = Prog.Eintr (intr, List.map subst args) }
      | Prog.Eun (op, a) -> { e with edesc = Prog.Eun (op, subst a) }
      | Prog.Ebin (op, a, b) -> { e with edesc = Prog.Ebin (op, subst a, subst b) })
  (* Actual arguments: a by-reference actual whose storage the callee may
     modify must stay an lvalue.  For a plain variable that is the bound
     formal; for a variable that is also a common global, the callee could
     write it through the common, so that path is checked too (such aliasing
     is non-conforming FORTRAN, but the substituter stays safe anyway). *)
  and subst_args callee args =
    List.mapi
      (fun pos (a : Prog.expr) ->
        let storage_modified (v : Prog.var) =
          Modref.modifies_formal t.modref callee pos
          ||
          match v.vkind with
          | Prog.Kglobal g ->
            Modref.modifies_global t.modref callee (Prog.global_key g)
          | Prog.Kformal _ | Prog.Klocal | Prog.Kresult -> false
        in
        match a.edesc with
        | Prog.Evar v when Prog.is_array v -> a (* whole array *)
        | Prog.Evar v when storage_modified v -> a
        | Prog.Earr (v, idx) when storage_modified v ->
          (* modified element target: only its subscripts are value uses *)
          { a with edesc = Prog.Earr (v, List.map subst idx) }
        | _ -> subst a)
      args
  in
  let subst_lhs = function
    | Prog.Lvar v -> Prog.Lvar v
    | Prog.Larr (v, idx) -> Prog.Larr (v, List.map subst idx)
  in
  let rec stmt (s : Prog.stmt) : Prog.stmt =
    let sdesc =
      match s.sdesc with
      | Prog.Sassign (lhs, e) -> Prog.Sassign (subst_lhs lhs, subst e)
      | Prog.Scall (f, args) -> Prog.Scall (f, subst_args f args)
      | Prog.Sif (arms, els) ->
        Prog.Sif
          ( List.map (fun (c, body) -> (subst c, List.map stmt body)) arms,
            List.map stmt els )
      | Prog.Sdo (v, lo, hi, step, body) ->
        Prog.Sdo (v, subst lo, subst hi, Option.map subst step, List.map stmt body)
      | Prog.Sdowhile (c, body) -> Prog.Sdowhile (subst c, List.map stmt body)
      | Prog.Sprint es -> Prog.Sprint (List.map subst es)
      | Prog.Sread ls -> Prog.Sread (List.map subst_lhs ls)
      | (Prog.Sgoto _ | Prog.Scontinue | Prog.Sreturn | Prog.Sstop) as d -> d
    in
    { s with sdesc }
  in
  let body = List.map stmt proc.pbody in
  ({ proc with pbody = body }, !count)

(** Substitute over the whole program.  [jobs > 1] distributes the
    per-procedure SCCP + rewrite across worker domains (procedures are
    independent once the analysis is solved); the result is identical
    to the sequential one — the engine preserves program order.  SCCP
    results and rewrites come from [t]'s memos where present; when
    [t.keep_sccps], the ones computed here are recorded in them
    afterwards, by the calling domain. *)
let apply ?(jobs = 1) (t : Driver.t) : Prog.t * stats =
  let keep = t.Driver.keep_sccps in
  let results =
    Ipcp_engine.Engine.map ~jobs
      (fun (proc : Prog.proc) ->
        let sccp = Driver.sccp_for ~record:false t proc.pname in
        let rewritten =
          match Hashtbl.find_opt t.Driver.substs proc.pname with
          | Some r -> r
          | None -> apply_proc t proc sccp
        in
        ( rewritten,
          proc.pname,
          sccp.Ipcp_analysis.Sccp.degraded <> [],
          if keep then Some sccp else None ))
      t.Driver.prog.procs
  in
  List.iter
    (fun (rewritten, name, _, kept) ->
      Option.iter
        (fun sccp ->
          Hashtbl.replace t.Driver.sccps name sccp;
          Hashtbl.replace t.Driver.substs name rewritten)
        kept)
    results;
  let procs = List.map (fun ((p, _), _, _, _) -> p) results in
  let by_proc = List.map (fun ((_, n), name, _, _) -> (name, n)) results in
  let sccp_degraded =
    List.filter_map
      (fun (_, name, d, _) -> if d then Some name else None)
      results
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 by_proc in
  ({ t.Driver.prog with procs }, { total; by_proc; sccp_degraded })

(** Convenience: analyze then substitute, returning only the count. *)
let count (config : Config.t) (prog : Prog.t) : int =
  let t = Driver.analyze config prog in
  (snd (apply t)).total

(** [count_staged artifacts config]: solve over shared artifacts, then
    substitute — one cell of Tables 2/3 without re-running stages 1–2. *)
let count_staged (artifacts : Driver.artifacts) (config : Config.t) : int =
  (snd (apply (Driver.solve config artifacts))).total
