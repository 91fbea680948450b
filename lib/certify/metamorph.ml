(** Semantics-preserving source transformations for metamorphic testing:
    a certified analysis must report the same facts for the transformed
    program as for the original (constants counted per procedure, total
    substitutions), because neither transform changes what any procedure
    computes.  Both resolve the source, transform the resolved program
    and print it with {!Pretty}, so [parameter] constants come out
    folded; a negative one prints as a negation, which the literal jump
    function does not read as a literal.

    - {!rename_variables}: rename formals, locals and common aliases
      inside each procedure.  Replacement names keep the original's
      first letter, so implicit typing sees the same class and the
      printed declarations stay the same; common aliases may be renamed
      freely because common association is positional, not nominal.
      Procedure names and function results are left alone.
    - {!reorder_procs}: shuffle the order of program units; unit order
      carries no meaning. *)

open Ipcp_frontend
module Prng = Ipcp_support.Prng

(* [procs] holds every procedure name: a replacement may not be a
   callee's name. *)
let rename_proc (prng : Prng.t) (procs : (string, Prog.proc) Hashtbl.t)
    (p : Prog.proc) : Prog.proc =
  let names =
    List.map (fun (v : Prog.var) -> v.vname) (p.pformals @ p.plocals)
    @ List.map fst p.pglobals
  in
  (* every name of the procedure is taken, so a fresh one captures
     nothing *)
  let used = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace used n ()) names;
  let mapping = Hashtbl.create 16 in
  let counter = ref 0 in
  List.iter
    (fun name ->
      if Prng.chance prng 0.8 then begin
        let rec fresh () =
          incr counter;
          let candidate = Fmt.str "%czz%d" name.[0] !counter in
          if Hashtbl.mem used candidate || Hashtbl.mem procs candidate then
            fresh ()
          else candidate
        in
        let name' = fresh () in
        Hashtbl.replace used name' ();
        Hashtbl.replace mapping name name'
      end)
    names;
  let rn n = Option.value ~default:n (Hashtbl.find_opt mapping n) in
  let var (v : Prog.var) = { v with vname = rn v.vname } in
  let rec expr (e : Prog.expr) =
    let edesc =
      match e.edesc with
      | Prog.Evar v -> Prog.Evar (var v)
      | Prog.Earr (v, idx) -> Prog.Earr (var v, List.map expr idx)
      | Prog.Ecall (f, args) -> Prog.Ecall (f, List.map expr args)
      | Prog.Eintr (i, args) -> Prog.Eintr (i, List.map expr args)
      | Prog.Eun (op, a) -> Prog.Eun (op, expr a)
      | Prog.Ebin (op, a, b) -> Prog.Ebin (op, expr a, expr b)
      | (Prog.Cint _ | Prog.Creal _ | Prog.Cbool _ | Prog.Cstr _) as d -> d
    in
    { e with edesc }
  in
  let lhs = function
    | Prog.Lvar v -> Prog.Lvar (var v)
    | Prog.Larr (v, idx) -> Prog.Larr (var v, List.map expr idx)
  in
  let rec stmt (s : Prog.stmt) =
    let sdesc =
      match s.sdesc with
      | Prog.Sassign (l, e) -> Prog.Sassign (lhs l, expr e)
      | Prog.Scall (f, args) -> Prog.Scall (f, List.map expr args)
      | Prog.Sif (arms, els) ->
        Prog.Sif
          ( List.map (fun (c, b) -> (expr c, List.map stmt b)) arms,
            List.map stmt els )
      | Prog.Sdo (v, lo, hi, step, b) ->
        Prog.Sdo (var v, expr lo, expr hi, Option.map expr step, List.map stmt b)
      | Prog.Sdowhile (c, b) -> Prog.Sdowhile (expr c, List.map stmt b)
      | Prog.Sprint es -> Prog.Sprint (List.map expr es)
      | Prog.Sread ls -> Prog.Sread (List.map lhs ls)
      | (Prog.Sgoto _ | Prog.Scontinue | Prog.Sreturn | Prog.Sstop) as d -> d
    in
    { s with sdesc }
  in
  {
    p with
    pformals = List.map var p.pformals;
    plocals = List.map var p.plocals;
    pglobals = List.map (fun (alias, g) -> (rn alias, g)) p.pglobals;
    pdata =
      List.map (fun (d : Prog.data_init) -> { d with di_var = var d.di_var }) p.pdata;
    pbody = List.map stmt p.pbody;
  }

(** Rename variables throughout [source] (seeded selection of names).
    Raises {!Loc.Error} on malformed input. *)
let rename_variables ~seed (source : string) : string =
  let prog = Sema.parse_and_resolve source in
  let procs = Prog.proc_table prog and prng = Prng.create seed in
  Pretty.program_to_string
    { prog with procs = List.map (rename_proc prng procs) prog.procs }

(** Shuffle the program-unit order (seeded).  Raises {!Loc.Error} on
    malformed input. *)
let reorder_procs ~seed (source : string) : string =
  let prog = Sema.parse_and_resolve source in
  Pretty.program_to_string
    { prog with procs = Prng.shuffle (Prng.create seed) prog.procs }
