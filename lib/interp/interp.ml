(** Reference interpreter for resolved MiniFort programs.

    The interpreter serves three purposes in this repository:
    - it is the *soundness oracle* for interprocedural constant propagation:
      every (procedure, parameter, value) fact the analyzer reports is checked
      against the values observed at actual procedure entries;
    - it checks *behavioural equivalence* of transformed programs (constant
      substitution and dead-code elimination must preserve printed output);
    - it makes the examples runnable end to end.

    Semantics notes (FORTRAN-77 flavoured):
    - all arguments are passed by reference; non-lvalue actuals get a fresh
      temporary cell, array elements alias the caller's storage, and a whole
      array (or an element, by sequence association) can bind an array formal;
    - arrays are column-major with 1-based subscripts and runtime bounds
      checks;
    - integer division and real→integer assignment truncate toward zero;
    - [i ** n] with negative [n] follows integer arithmetic (0 for |i| > 1);
    - reading an uninitialized variable is a runtime error;
    - execution is bounded by a fuel counter so divergent programs terminate;
    - [goto] may jump within the current statement sequence or out of nested
      blocks, never into a block. *)

open Ipcp_frontend

type value = Vint of int | Vreal of float | Vbool of bool

let pp_value ppf = function
  | Vint n -> Fmt.int ppf n
  | Vreal f -> Fmt.pf ppf "%g" f
  | Vbool b -> Fmt.string ppf (if b then "T" else "F")

let equal_value a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vreal x, Vreal y -> x = y
  | Vbool x, Vbool y -> x = y
  | (Vint _ | Vreal _ | Vbool _), _ -> false

type cell = value option ref

type storage =
  | Scalar of cell
  | Array of cell array  (** flat column-major cells *)

(** Snapshot taken at every procedure entry, used by the soundness oracle.
    Only scalar formals and scalar globals are recorded; [None] marks storage
    that was still uninitialized at entry. *)
type entry_snapshot = {
  es_proc : string;
  es_formals : (int * value option) list;
  es_globals : (string * value option) list;  (** keyed by {!Prog.global_key} *)
}

type outcome =
  | Finished  (** ran to [stop] or fell off the end of the main program *)
  | Out_of_fuel
  | Failed of string  (** runtime error message *)

type result = {
  outputs : string list;  (** lines printed, in order *)
  entries : entry_snapshot list;  (** procedure entries, in order *)
  steps : int;
  outcome : outcome;
}

exception Runtime of string

exception Out_of_fuel_exn

exception Stop_program

exception Return_from_proc

exception Jump of int  (** to a statement label *)

type state = {
  procs : (string, Prog.proc) Hashtbl.t;  (** {!Prog.proc_table} *)
  globals : (string, storage) Hashtbl.t;
  mutable fuel : int;
  buf_outputs : string list ref;
  buf_entries : entry_snapshot list ref;
  mutable input : int list;  (** values consumed by [read] *)
  mutable total_steps : int;
  trace_entries : bool;
  on_expr : (int -> value -> unit) option;
      (** observation hook: called with (expression id, value) after every
          expression evaluation — the certifier's execution witness *)
}

let tick st =
  st.total_steps <- st.total_steps + 1;
  if st.fuel <= 0 then raise Out_of_fuel_exn;
  st.fuel <- st.fuel - 1

let runtime fmt = Fmt.kstr (fun m -> raise (Runtime m)) fmt

(* ------------------------------------------------------------------ *)
(* Storage allocation and array indexing.                              *)

let array_size dims = List.fold_left ( * ) 1 dims

let alloc_storage dims =
  match dims with
  | [] -> Scalar (ref None)
  | _ -> Array (Array.init (array_size dims) (fun _ -> ref None))

(* Column-major flat offset of 1-based subscripts. *)
let flat_offset ~what dims idx =
  let rec go dims idx stride acc =
    match (dims, idx) with
    | [], [] -> acc
    | d :: dims', i :: idx' ->
      if i < 1 || i > d then
        runtime "subscript %d out of bounds 1..%d for %s" i d what;
      go dims' idx' (stride * d) (acc + ((i - 1) * stride))
    | _ -> runtime "wrong number of subscripts for %s" what
  in
  go dims idx 1 0

(* ------------------------------------------------------------------ *)
(* Value coercions.                                                    *)

let as_int ~what = function
  | Vint n -> n
  | Vreal f -> int_of_float f
  | Vbool _ -> runtime "logical value where integer expected (%s)" what

let as_real ~what = function
  | Vint n -> float_of_int n
  | Vreal f -> f
  | Vbool _ -> runtime "logical value where real expected (%s)" what

let as_bool ~what = function
  | Vbool b -> b
  | Vint _ | Vreal _ -> runtime "numeric value where logical expected (%s)" what

(* Coerce a value for assignment into a variable of type [ty]. *)
let coerce ty v =
  match (ty, v) with
  | Prog.Tint, Vint n -> Vint n
  | Prog.Tint, Vreal f -> Vint (int_of_float f)
  | Prog.Treal, Vint n -> Vreal (float_of_int n)
  | Prog.Treal, Vreal f -> Vreal f
  | Prog.Tlogical, Vbool b -> Vbool b
  | Prog.Tlogical, (Vint _ | Vreal _) ->
    runtime "cannot store a number into a logical variable"
  | (Prog.Tint | Prog.Treal), Vbool _ ->
    runtime "cannot store a logical into a numeric variable"

let int_pow base ex =
  if ex >= 0 then begin
    let rec go acc b e = if e = 0 then acc else go (acc * b) b (e - 1) in
    go 1 base ex
  end
  else
    match base with
    | 1 -> 1
    | -1 -> if ex mod 2 = 0 then 1 else -1
    | 0 -> runtime "0 ** negative exponent"
    | _ -> 0

(* ------------------------------------------------------------------ *)
(* Environments.                                                       *)

type frame = { vars : (string, storage) Hashtbl.t }

let storage_of_var st frame (v : Prog.var) : storage =
  match v.vkind with
  | Prog.Kglobal g -> (
    let key = Prog.global_key g in
    match Hashtbl.find_opt st.globals key with
    | Some s -> s
    | None ->
      let s = alloc_storage g.gdims in
      Hashtbl.replace st.globals key s;
      s)
  | Prog.Kformal _ | Prog.Klocal | Prog.Kresult -> (
    match Hashtbl.find_opt frame.vars v.vname with
    | Some s -> s
    | None ->
      let s = alloc_storage v.vdims in
      Hashtbl.replace frame.vars v.vname s;
      s)

let scalar_cell st frame (v : Prog.var) : cell =
  match storage_of_var st frame v with
  | Scalar c -> c
  | Array _ -> runtime "array %s used as a scalar" v.vname

let read_cell ~what (c : cell) =
  match !c with
  | Some v -> v
  | None -> runtime "read of uninitialized variable %s" what

(* ------------------------------------------------------------------ *)
(* Expression evaluation.                                              *)

let rec eval st frame (e : Prog.expr) : value =
  let v = eval_desc st frame e in
  (match st.on_expr with None -> () | Some f -> f e.eid v);
  v

and eval_desc st frame (e : Prog.expr) : value =
  tick st;
  match e.edesc with
  | Cint n -> Vint n
  | Creal f -> Vreal f
  | Cbool b -> Vbool b
  | Cstr _ -> runtime "string literal outside print"
  | Evar v -> read_cell ~what:v.vname (scalar_cell st frame v)
  | Earr (v, idx) ->
    let cell = element_cell st frame v idx in
    read_cell ~what:(v.vname ^ "(...)") cell
  | Ecall (f, args) -> call_function st frame f args
  | Eintr (intr, args) -> eval_intrinsic st frame intr args
  | Eun (Ast.Neg, a) -> (
    match eval st frame a with
    | Vint n -> Vint (-n)
    | Vreal f -> Vreal (-.f)
    | Vbool _ -> runtime "negation of a logical")
  | Eun (Ast.Not, a) -> Vbool (not (as_bool ~what:".not." (eval st frame a)))
  | Ebin (op, a, b) -> eval_binop st frame op a b

and eval_intrinsic st frame intr args =
  let values = List.map (eval st frame) args in
  match (intr, values) with
  | Prog.Iabs, [ Vint n ] -> Vint (abs n)
  | Prog.Iabs, [ Vreal f ] -> Vreal (Float.abs f)
  | Prog.Imin, [ Vint a; Vint b ] -> Vint (min a b)
  | Prog.Imin, [ Vreal a; Vreal b ] -> Vreal (Float.min a b)
  | Prog.Imax, [ Vint a; Vint b ] -> Vint (max a b)
  | Prog.Imax, [ Vreal a; Vreal b ] -> Vreal (Float.max a b)
  | Prog.Imod, [ Vint a; Vint b ] ->
    if b = 0 then runtime "mod with zero divisor";
    Vint (a mod b)
  | (Prog.Iabs | Prog.Imin | Prog.Imax | Prog.Imod), _ ->
    runtime "bad arguments to intrinsic %s" (Prog.intrinsic_name intr)

and eval_binop st frame op a b =
  let va = eval st frame a in
  let vb = eval st frame b in
  let arith fi fr =
    match (va, vb) with
    | Vint x, Vint y -> Vint (fi x y)
    | (Vint _ | Vreal _), (Vint _ | Vreal _) ->
      Vreal (fr (as_real ~what:"operand" va) (as_real ~what:"operand" vb))
    | _ -> runtime "logical operand in arithmetic"
  in
  let rel f =
    match (va, vb) with
    | Vint x, Vint y -> Vbool (f (compare x y) 0)
    | (Vint _ | Vreal _), (Vint _ | Vreal _) ->
      Vbool
        (f (compare (as_real ~what:"operand" va) (as_real ~what:"operand" vb)) 0)
    | _ -> runtime "logical operand in comparison"
  in
  let logic f =
    Vbool (f (as_bool ~what:"operand" va) (as_bool ~what:"operand" vb))
  in
  match op with
  | Ast.Add -> arith ( + ) ( +. )
  | Ast.Sub -> arith ( - ) ( -. )
  | Ast.Mul -> arith ( * ) ( *. )
  | Ast.Div ->
    (match (va, vb) with
    | Vint _, Vint 0 -> runtime "integer division by zero"
    | Vint x, Vint y -> Vint (x / y)
    | (Vint _ | Vreal _), (Vint _ | Vreal _) ->
      let d = as_real ~what:"divisor" vb in
      if d = 0.0 then runtime "real division by zero";
      Vreal (as_real ~what:"dividend" va /. d)
    | _ -> runtime "logical operand in division")
  | Ast.Pow ->
    (match (va, vb) with
    | Vint x, Vint y -> Vint (int_pow x y)
    | (Vint _ | Vreal _), (Vint _ | Vreal _) ->
      Vreal (as_real ~what:"base" va ** as_real ~what:"exponent" vb)
    | _ -> runtime "logical operand in power")
  | Ast.Lt -> rel ( < )
  | Ast.Le -> rel ( <= )
  | Ast.Gt -> rel ( > )
  | Ast.Ge -> rel ( >= )
  | Ast.Eq -> rel ( = )
  | Ast.Ne -> rel ( <> )
  | Ast.And -> logic ( && )
  | Ast.Or -> logic ( || )

and element_cell st frame (v : Prog.var) idx : cell =
  let ivals =
    List.map (fun i -> as_int ~what:"subscript" (eval st frame i)) idx
  in
  match storage_of_var st frame v with
  | Scalar _ -> runtime "scalar %s subscripted" v.vname
  | Array cells ->
    let off = flat_offset ~what:v.vname v.vdims ivals in
    if off >= Array.length cells then
      runtime "subscript out of bounds for %s" v.vname;
    cells.(off)

(* Bind actual arguments to formal parameters, by reference. *)
and bind_args st frame (callee : Prog.proc) (args : Prog.expr list) :
    (string, storage) Hashtbl.t =
  let vars = Hashtbl.create 8 in
  List.iter2
    (fun (formal : Prog.var) (actual : Prog.expr) ->
      let storage =
        match actual.edesc with
        | Prog.Evar v when Prog.is_array v ->
          (* whole-array actual *)
          storage_of_var st frame v
        | Prog.Evar v when Prog.is_scalar formal ->
          Scalar (scalar_cell st frame v)
        | Prog.Evar v ->
          (* scalar actual to array formal: rejected by sema *)
          ignore v;
          runtime "scalar bound to array formal"
        | Prog.Earr (v, idx) when Prog.is_array formal -> (
          (* sequence association: array formal starts at the element *)
          let ivals =
            List.map (fun i -> as_int ~what:"subscript" (eval st frame i)) idx
          in
          match storage_of_var st frame v with
          | Scalar _ -> runtime "scalar %s subscripted" v.vname
          | Array cells ->
            let off = flat_offset ~what:v.vname v.vdims ivals in
            let view = Array.sub cells off (Array.length cells - off) in
            if Array.length view < array_size formal.vdims then
              runtime "array section too small for formal %s" formal.vname;
            Array view)
        | Prog.Earr (v, idx) -> Scalar (element_cell st frame v idx)
        | _ ->
          (* expression actual: fresh temporary *)
          let value = eval st frame actual in
          Scalar (ref (Some (coerce formal.vty value)))
      in
      Hashtbl.replace vars formal.vname storage)
    callee.pformals args;
  vars

and snapshot_entry st (callee : Prog.proc) vars =
  if st.trace_entries then begin
    let formals =
      List.filteri (fun _ (v : Prog.var) -> Prog.is_scalar v) callee.pformals
      |> List.map (fun (v : Prog.var) ->
             let pos =
               match v.vkind with Prog.Kformal i -> i | _ -> assert false
             in
             match Hashtbl.find_opt vars v.vname with
             | Some (Scalar c) -> (pos, !c)
             | _ -> (pos, None))
    in
    let globals =
      List.filter_map
        (fun (_, (g : Prog.global)) ->
          if g.gdims <> [] then None
          else
            let key = Prog.global_key g in
            match Hashtbl.find_opt st.globals key with
            | Some (Scalar c) -> Some (key, !c)
            | _ -> Some (key, None))
        callee.pglobals
    in
    st.buf_entries :=
      { es_proc = callee.pname; es_formals = formals; es_globals = globals }
      :: !(st.buf_entries)
  end

and call_function st frame fname args : value =
  let callee = Hashtbl.find st.procs fname in
  let vars = bind_args st frame callee args in
  snapshot_entry st callee vars;
  let callee_frame = { vars } in
  (try exec_body st callee_frame callee.pbody with Return_from_proc -> ());
  match callee.presult with
  | None -> runtime "%s is not a function" fname
  | Some rv -> (
    match Hashtbl.find_opt vars rv.vname with
    | Some (Scalar c) ->
      read_cell ~what:(fname ^ " (function result)") c
    | _ -> runtime "function %s did not set its result" fname)

and call_subroutine st frame sname args =
  let callee = Hashtbl.find st.procs sname in
  let vars = bind_args st frame callee args in
  snapshot_entry st callee vars;
  let callee_frame = { vars } in
  try exec_body st callee_frame callee.pbody with Return_from_proc -> ()

(* ------------------------------------------------------------------ *)
(* Statement execution.                                                *)

(* Execute a statement sequence.  A [Jump l] raised inside is caught here if
   some statement of this sequence carries label [l]; otherwise it keeps
   propagating outward (jumps out of blocks). *)
and exec_body st frame (stmts : Prog.stmt list) : unit =
  let has_label l =
    List.exists (fun (s : Prog.stmt) -> s.slabel = Some l) stmts
  in
  let rec run = function
    | [] -> ()
    | s :: rest -> (
      match exec_stmt st frame s with
      | () -> run rest
      | exception Jump l when has_label l ->
        let rec from = function
          | [] -> assert false
          | (s' : Prog.stmt) :: tl when s'.slabel = Some l -> run (s' :: tl)
          | _ :: tl -> from tl
        in
        from stmts)
  in
  run stmts

and exec_stmt st frame (s : Prog.stmt) : unit =
  tick st;
  match s.sdesc with
  | Sassign (lhs, e) -> (
    let value = eval st frame e in
    match lhs with
    | Lvar v -> scalar_cell st frame v := Some (coerce v.vty value)
    | Larr (v, idx) -> element_cell st frame v idx := Some (coerce v.vty value))
  | Scall (f, args) -> call_subroutine st frame f args
  | Sif (arms, els) ->
    let rec pick = function
      | [] -> exec_body st frame els
      | (c, body) :: rest ->
        if as_bool ~what:"if condition" (eval st frame c) then
          exec_body st frame body
        else pick rest
    in
    pick arms
  | Sdo (v, lo, hi, step, body) ->
    let cell = scalar_cell st frame v in
    let lo = as_int ~what:"do lower bound" (eval st frame lo) in
    let hi = as_int ~what:"do upper bound" (eval st frame hi) in
    let step =
      match step with
      | None -> 1
      | Some e -> as_int ~what:"do step" (eval st frame e)
    in
    if step = 0 then runtime "do loop with zero step";
    let continues i = if step > 0 then i <= hi else i >= hi in
    let rec loop i =
      if continues i then begin
        cell := Some (Vint i);
        exec_body st frame body;
        tick st;
        loop (i + step)
      end
      else cell := Some (Vint i)
    in
    loop lo
  | Sdowhile (c, body) ->
    let rec loop () =
      if as_bool ~what:"do while condition" (eval st frame c) then begin
        exec_body st frame body;
        tick st;
        loop ()
      end
    in
    loop ()
  | Sgoto l -> raise (Jump l)
  | Scontinue -> ()
  | Sreturn -> raise Return_from_proc
  | Sstop -> raise Stop_program
  | Sprint args ->
    let piece (e : Prog.expr) =
      match e.edesc with
      | Cstr str -> str
      | _ -> Fmt.str "%a" pp_value (eval st frame e)
    in
    let line = String.concat " " (List.map piece args) in
    st.buf_outputs := line :: !(st.buf_outputs)
  | Sread ls ->
    List.iter
      (fun lhs ->
        let next =
          match st.input with
          | [] -> 0
          | x :: rest ->
            st.input <- rest;
            x
        in
        match lhs with
        | Prog.Lvar v ->
          scalar_cell st frame v := Some (coerce v.vty (Vint next))
        | Prog.Larr (v, idx) ->
          element_cell st frame v idx := Some (coerce v.vty (Vint next)))
      ls

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

(** Default step bound: generous for the suite's programs, small enough
    that a divergent program still stops promptly. *)
let default_fuel = 2_000_000

(** Run a program's main unit.  [fuel] bounds the number of interpreter steps
    (expressions + statements); [input] feeds [read] statements (exhausted
    input reads 0); [trace_entries] controls whether procedure-entry
    snapshots are recorded (they cost time and memory). *)
let run ?(fuel = default_fuel) ?(input = []) ?(trace_entries = true) ?on_expr
    (prog : Prog.t) : result =
  let main = Prog.find_proc_exn prog prog.main in
  let st =
    {
      procs = Prog.proc_table prog;
      globals = Hashtbl.create 32;
      fuel;
      buf_outputs = ref [];
      buf_entries = ref [];
      input;
      total_steps = 0;
      trace_entries;
      on_expr;
    }
  in
  let frame = { vars = Hashtbl.create 16 } in
  (* load-time [data] initialization: common globals from any unit, and the
     main program's own locals *)
  let value_of_const = function
    | Prog.Dc_int n -> Vint n
    | Prog.Dc_real f -> Vreal f
    | Prog.Dc_bool b -> Vbool b
  in
  let apply_data owner_frame (d : Prog.data_init) =
    let cells =
      match storage_of_var st owner_frame d.di_var with
      | Scalar c -> [| c |]
      | Array cells -> cells
    in
    let pos = ref 0 in
    List.iter
      (fun (repeat, c) ->
        for _ = 1 to repeat do
          if !pos < Array.length cells then begin
            cells.(!pos) := Some (value_of_const c);
            incr pos
          end
        done)
      d.di_values
  in
  List.iter
    (fun (p : Prog.proc) ->
      List.iter
        (fun (d : Prog.data_init) ->
          match d.di_var.vkind with
          | Prog.Kglobal _ -> apply_data frame d
          | Prog.Klocal when p.pname = prog.main -> apply_data frame d
          | _ -> ())
        p.pdata)
    prog.procs;
  snapshot_entry st main frame.vars;
  let outcome =
    match exec_body st frame main.pbody with
    | () -> Finished
    | exception Stop_program -> Finished
    | exception Return_from_proc -> Finished
    | exception Out_of_fuel_exn -> Out_of_fuel
    | exception Runtime msg -> Failed msg
    | exception Jump l -> Failed (Fmt.str "jump to label %d entered a block" l)
  in
  {
    outputs = List.rev !(st.buf_outputs);
    entries = List.rev !(st.buf_entries);
    steps = st.total_steps;
    outcome;
  }
