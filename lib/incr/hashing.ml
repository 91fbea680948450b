(** Canonical procedure hashing for incremental re-analysis.

    Two procedures with equal hashes are interchangeable at the
    corresponding level of the incremental pipeline:

    - the {b strict} hash covers the procedure exactly as written —
      names included — but excludes every program-wide artifact of
      parsing (expression/statement ids, source locations).  Equal
      strict hashes license grafting the previous version's resolved
      [Prog.proc] into the new program, which keeps reused per-procedure
      IR consistent with the program it is analyzed under;
    - the {b semantic} hash is additionally α-insensitive: formals are
      identified by position, locals by first-occurrence numbering,
      globals by their [(block, slot)] storage key, and declaration
      lists keep only what has meaning (an unused local is invisible).
      Equal semantic hashes mean the analysis semantics of the body are
      unchanged — exactly the transformations {!Ipcp_certify.Metamorph}
      certifies as meaning-preserving (variable renaming) plus anything
      that only moves the procedure around (unit reordering), so the
      call-graph diff built on it reports such edits as empty.

    Procedure names referenced in call statements/expressions are kept
    literally in both modes: procedures are identified by name across
    versions, so a call-target rename is a semantic change.  Statement
    labels and [goto] targets are likewise literal — relabeling changes
    control flow identity and is out of scope for canonicalization. *)

open Ipcp_frontend

type mode = Strict | Semantic

type h = {
  buf : Buffer.t;
  mode : mode;
  locals : (string, int) Hashtbl.t;  (** semantic local numbering *)
  mutable next_local : int;
}

(* Every token is NUL-terminated so adjacent fields can never collide
   by concatenation ("ab"^"c" vs "a"^"bc"). *)
let add h s =
  Buffer.add_string h.buf s;
  Buffer.add_char h.buf '\x00'

let addf h fmt = Printf.ksprintf (add h) fmt

let ty_tag = function
  | Prog.Tint -> "i"
  | Prog.Treal -> "r"
  | Prog.Tlogical -> "b"

let dims_tag dims = String.concat "," (List.map string_of_int dims)

let local_id h name =
  match Hashtbl.find_opt h.locals name with
  | Some i -> i
  | None ->
    let i = h.next_local in
    h.next_local <- i + 1;
    Hashtbl.add h.locals name i;
    i

let var h (v : Prog.var) =
  let ident =
    match (h.mode, v.vkind) with
    | _, Prog.Kformal i -> Printf.sprintf "f%d" i
    | _, Prog.Kglobal g -> "g" ^ Prog.global_key g
    | _, Prog.Kresult -> "r"
    | Strict, Prog.Klocal -> "l:" ^ v.vname
    | Semantic, Prog.Klocal -> Printf.sprintf "l%d" (local_id h v.vname)
  in
  let name =
    (* strict mode also pins the surface name of formals/globals — the
       printed output (CONSTANTS sets, substituted source) uses it *)
    match h.mode with Strict -> v.vname | Semantic -> ""
  in
  addf h "v:%s:%s:%s:%s" ident name (ty_tag v.vty) (dims_tag v.vdims)

let unop_tag : Ast.unop -> string = function Neg -> "neg" | Not -> "not"

let binop_tag : Ast.binop -> string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let rec expr h (e : Prog.expr) =
  match e.edesc with
  | Cint n -> addf h "ci%d" n
  | Creal f -> addf h "cr%Lx" (Int64.bits_of_float f)
  | Cbool b -> addf h "cb%b" b
  | Cstr s -> addf h "cs%s" s
  | Evar v -> var h v
  | Earr (v, idx) ->
    add h "arr(";
    var h v;
    List.iter (expr h) idx;
    add h ")"
  | Ecall (name, args) ->
    addf h "call(%s" name;
    List.iter (expr h) args;
    add h ")"
  | Eintr (i, args) ->
    addf h "intr(%s" (Prog.intrinsic_name i);
    List.iter (expr h) args;
    add h ")"
  | Eun (op, a) ->
    addf h "un:%s" (unop_tag op);
    expr h a
  | Ebin (op, a, b) ->
    addf h "bin:%s" (binop_tag op);
    expr h a;
    expr h b

let lhs h (l : Prog.lhs) =
  match l with
  | Prog.Lvar v -> var h v
  | Prog.Larr (v, idx) ->
    add h "larr(";
    var h v;
    List.iter (expr h) idx;
    add h ")"

let rec stmt h (s : Prog.stmt) =
  (match s.slabel with Some l -> addf h "L%d" l | None -> ());
  match s.sdesc with
  | Sassign (l, e) ->
    add h "assign";
    lhs h l;
    expr h e
  | Scall (name, args) ->
    addf h "scall(%s" name;
    List.iter (expr h) args;
    add h ")"
  | Sif (arms, els) ->
    add h "if";
    List.iter
      (fun (c, body) ->
        add h "arm";
        expr h c;
        List.iter (stmt h) body)
      arms;
    add h "else";
    List.iter (stmt h) els;
    add h "fi"
  | Sdo (v, lo, hi, step, body) ->
    add h "do";
    var h v;
    expr h lo;
    expr h hi;
    (match step with
    | Some e ->
      add h "step";
      expr h e
    | None -> add h "nostep");
    List.iter (stmt h) body;
    add h "od"
  | Sdowhile (c, body) ->
    add h "dowhile";
    expr h c;
    List.iter (stmt h) body;
    add h "od"
  | Sgoto l -> addf h "goto%d" l
  | Scontinue -> add h "continue"
  | Sreturn -> add h "return"
  | Sstop -> add h "stop"
  | Sprint es ->
    add h "print";
    List.iter (expr h) es
  | Sread ls ->
    add h "read";
    List.iter (lhs h) ls

let data_const_tag = function
  | Prog.Dc_int n -> Printf.sprintf "i%d" n
  | Prog.Dc_real f -> Printf.sprintf "r%Lx" (Int64.bits_of_float f)
  | Prog.Dc_bool b -> Printf.sprintf "b%b" b

let hash mode (p : Prog.proc) : string =
  let h =
    { buf = Buffer.create 1024; mode; locals = Hashtbl.create 8; next_local = 0 }
  in
  (match h.mode with
  | Strict ->
    (* the name is part of the strict identity: an equal strict hash
       must determine the procedure completely, since grafting reuses
       the previous version's value whole *)
    addf h "proc:%s" p.pname
  | Semantic -> add h "proc");
  addf h "kind:%s"
    (match p.pkind with
    | Prog.Pmain -> "main"
    | Prog.Psubroutine -> "sub"
    | Prog.Pfunction -> "fun");
  addf h "formals:%d" (List.length p.pformals);
  List.iter (var h) p.pformals;
  (match p.presult with
  | Some v ->
    add h "result";
    var h v
  | None -> add h "noresult");
  (* commons: strict keeps the declaration as written (aliases, order);
     semantic keeps the set of storage keys with their shapes — the
     local alias names and declaration order carry no meaning *)
  let commons =
    match h.mode with
    | Strict -> p.pglobals
    | Semantic ->
      List.sort
        (fun (_, a) (_, b) -> compare (Prog.global_key a) (Prog.global_key b))
        p.pglobals
  in
  List.iter
    (fun (alias, (g : Prog.global)) ->
      let alias = match h.mode with Strict -> alias | Semantic -> "" in
      addf h "common:%s:%s:%s:%s" alias (Prog.global_key g) (ty_tag g.gty)
        (dims_tag g.gdims))
    commons;
  (match h.mode with
  | Strict ->
    List.iter
      (fun (v : Prog.var) ->
        addf h "local:%s:%s:%s" v.vname (ty_tag v.vty) (dims_tag v.vdims))
      p.plocals
  | Semantic ->
    (* locals are reached through their occurrences; a declared-but-
       unused local has no semantic footprint *)
    ());
  List.iter
    (fun (d : Prog.data_init) ->
      add h "data";
      var h d.di_var;
      List.iter
        (fun (rep, dc) -> addf h "%d*%s" rep (data_const_tag dc))
        d.di_values)
    p.pdata;
  add h "body";
  List.iter (stmt h) p.pbody;
  Digest.to_hex (Digest.string (Buffer.contents h.buf))

let strict p = hash Strict p
let semantic p = hash Semantic p

let table mode (prog : Prog.t) : (string, string) Hashtbl.t =
  let tbl = Hashtbl.create (List.length prog.procs) in
  List.iter (fun (p : Prog.proc) -> Hashtbl.replace tbl p.pname (hash mode p))
    prog.procs;
  tbl
