(** Canonical procedure hashing for incremental re-analysis.

    The {b semantic} hash is α-insensitive: formals are identified by
    position, locals by first-occurrence numbering, globals by their
    [(block, slot)] storage key, and declaration lists keep only what has
    meaning (an unused local is invisible).  Equal semantic hashes mean
    the analysis semantics of the body are unchanged — exactly the
    transformations {!Ipcp_certify.Metamorph} certifies as
    meaning-preserving (variable renaming) plus anything that only moves
    the procedure around (unit reordering), so the diff built on it
    reports such edits as empty.  (Whether a procedure is the same as
    written is a separate question, answered by comparing it with its
    predecessor: {!Ipcp_frontend.Prog.equal_proc}.)

    Procedure names referenced in call statements/expressions are kept
    literally: procedures are identified by name across versions, so a
    call-target rename is a semantic change.  Statement labels and
    [goto] targets are likewise literal — relabeling changes control
    flow identity and is out of scope for canonicalization. *)

open Ipcp_frontend

type h = {
  buf : Buffer.t;
  locals : (string, int) Hashtbl.t;  (** local numbering *)
  mutable next_local : int;
}

(* Every token is NUL-terminated so adjacent fields can never collide
   by concatenation ("ab"^"c" vs "a"^"bc").  A token is written in parts
   ([part], [int_part]) and closed by [add]; no format strings, which
   cost as much as the rest of the encoder. *)
let part h s = Buffer.add_string h.buf s
let int_part h n = Buffer.add_string h.buf (string_of_int n)

let add h s =
  Buffer.add_string h.buf s;
  Buffer.add_char h.buf '\x00'

let add_int h n = add h (string_of_int n)

(* [Prog.global_key g], written in place *)
let global_key_part h (g : Prog.global) =
  part h g.gblock;
  part h ":";
  int_part h g.gslot

let ty_tag = function
  | Prog.Tint -> "i"
  | Prog.Treal -> "r"
  | Prog.Tlogical -> "b"

let dims_part h dims =
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char h.buf ',';
      int_part h d)
    dims

let local_id h name =
  match Hashtbl.find_opt h.locals name with
  | Some i -> i
  | None ->
    let i = h.next_local in
    h.next_local <- i + 1;
    Hashtbl.add h.locals name i;
    i

let var h (v : Prog.var) =
  part h "v:";
  (match v.vkind with
  | Prog.Kformal i ->
    part h "f";
    int_part h i
  | Prog.Kglobal g ->
    part h "g";
    global_key_part h g
  | Prog.Kresult -> part h "r"
  | Prog.Klocal ->
    part h "l";
    int_part h (local_id h v.vname));
  part h "::";
  part h (ty_tag v.vty);
  part h ":";
  dims_part h v.vdims;
  add h ""

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
  | Cint n ->
    part h "ci";
    add_int h n
  | Creal f ->
    part h "cr";
    add h (Printf.sprintf "%Lx" (Int64.bits_of_float f))
  | Cbool b ->
    part h "cb";
    add h (string_of_bool b)
  | Cstr s ->
    part h "cs";
    add h s
  | Evar v -> var h v
  | Earr (v, idx) ->
    add h "arr(";
    var h v;
    List.iter (expr h) idx;
    add h ")"
  | Ecall (name, args) ->
    part h "call(";
    add h name;
    List.iter (expr h) args;
    add h ")"
  | Eintr (i, args) ->
    part h "intr(";
    add h (Prog.intrinsic_name i);
    List.iter (expr h) args;
    add h ")"
  | Eun (op, a) ->
    part h "un:";
    add h (unop_tag op);
    expr h a
  | Ebin (op, a, b) ->
    part h "bin:";
    add h (binop_tag op);
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
  (match s.slabel with
  | Some l ->
    part h "L";
    add_int h l
  | None -> ());
  match s.sdesc with
  | Sassign (l, e) ->
    add h "assign";
    lhs h l;
    expr h e
  | Scall (name, args) ->
    part h "scall(";
    add h name;
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
  | Sgoto l ->
    part h "goto";
    add_int h l
  | Scontinue -> add h "continue"
  | Sreturn -> add h "return"
  | Sstop -> add h "stop"
  | Sprint es ->
    add h "print";
    List.iter (expr h) es
  | Sread ls ->
    add h "read";
    List.iter (lhs h) ls

let data_const_part h = function
  | Prog.Dc_int n ->
    part h "i";
    int_part h n
  | Prog.Dc_real f ->
    part h "r";
    part h (Printf.sprintf "%Lx" (Int64.bits_of_float f))
  | Prog.Dc_bool b ->
    part h "b";
    part h (string_of_bool b)

(* Encode [p] into [h]'s (cleared) buffer and digest it. *)
let digest h (p : Prog.proc) : string =
  Buffer.clear h.buf;
  Hashtbl.reset h.locals;
  h.next_local <- 0;
  add h "proc";
  part h "kind:";
  add h
    (match p.pkind with
    | Prog.Pmain -> "main"
    | Prog.Psubroutine -> "sub"
    | Prog.Pfunction -> "fun");
  part h "formals:";
  add_int h (List.length p.pformals);
  List.iter (var h) p.pformals;
  (match p.presult with
  | Some v ->
    add h "result";
    var h v
  | None -> add h "noresult");
  (* commons: the set of storage keys with their shapes — the local alias
     names and declaration order carry no meaning *)
  let commons =
    List.sort
      (fun (_, a) (_, b) -> compare (Prog.global_key a) (Prog.global_key b))
      p.pglobals
  in
  List.iter
    (fun (_, (g : Prog.global)) ->
      part h "common:";
      part h ":";
      global_key_part h g;
      part h ":";
      part h (ty_tag g.gty);
      part h ":";
      dims_part h g.gdims;
      add h "")
    commons;
  (* locals are reached through their occurrences; a declared-but-unused
     local has no semantic footprint *)
  List.iter
    (fun (d : Prog.data_init) ->
      add h "data";
      var h d.di_var;
      List.iter
        (fun (rep, dc) ->
          int_part h rep;
          part h "*";
          data_const_part h dc;
          add h "")
        d.di_values)
    p.pdata;
  add h "body";
  List.iter (stmt h) p.pbody;
  Digest.to_hex (Digest.string (Buffer.contents h.buf))

let encoder () =
  { buf = Buffer.create 1024; locals = Hashtbl.create 8; next_local = 0 }

let semantic p = digest (encoder ()) p

let table (prog : Prog.t) : (string, string) Hashtbl.t =
  let tbl = Hashtbl.create (List.length prog.procs) in
  let h = encoder () in
  List.iter (fun (p : Prog.proc) -> Hashtbl.replace tbl p.pname (digest h p))
    prog.procs;
  tbl
