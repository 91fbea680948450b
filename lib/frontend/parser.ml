(** Recursive-descent parser for MiniFort.

    Grammar sketch (newline-terminated statements):
    {v
    program   ::= unit+
    unit      ::= ("program" | "subroutine" | "function") name [ "(" names ")" ] NL
                  decl* stmt* "end" NL
    decl      ::= type name[dims] ("," name[dims])* NL
                | "common" "/" name "/" names NL
                | "parameter" "(" name "=" expr ("," name "=" expr)* ")" NL
    stmt      ::= [label] simple NL | [label] block
    block     ::= "if" "(" expr ")" "then" NL stmt* ("elseif"|"else if" ...)*
                  [ "else" NL stmt* ] ("endif"|"end if") NL
                | "do" name "=" expr "," expr ["," expr] NL stmt* ("enddo"|"end do") NL
                | "do" "while" "(" expr ")" NL stmt* ("enddo"|"end do") NL
    v}

    Expression precedence (loosest to tightest):
    [.or.] < [.and.] < [.not.] < relational < additive < multiplicative
    < unary minus < [**] (right-assoc) < primary. *)

open Ast

type t = {
  lexer : Lexer.t;
  mutable cur : Token.t * Loc.t;  (** the current token *)
  mutable ahead : (Token.t * Loc.t) option;
      (** the token after [cur], once {!peek2_tok} has fetched it *)
  mutable consumed : int;  (** tokens consumed so far *)
  recover : Ipcp_support.Diagnostics.t option;
      (** when set, syntax errors are accumulated here and parsing
          resynchronizes at statement / unit boundaries *)
}

let create ?recover lexer =
  { lexer; cur = Lexer.next lexer; ahead = None; consumed = 0; recover }

let report p l m =
  match p.recover with
  | Some diags -> Loc.report diags ~code:"E-PARSE" l m
  | None -> ()

let peek p = p.cur

let peek_tok p = fst p.cur

let peek2_tok p =
  match p.ahead with
  | Some (t, _) -> t
  | None ->
    let tl = Lexer.next p.lexer in
    p.ahead <- Some tl;
    fst tl

let loc_of p = snd p.cur

let advance p =
  (match p.ahead with
  | Some tl ->
    p.cur <- tl;
    p.ahead <- None
  | None -> p.cur <- Lexer.next p.lexer);
  p.consumed <- p.consumed + 1

let expect p tok what =
  let t, l = peek p in
  if Token.equal t tok then advance p
  else Loc.error l "expected %s but found %a" what Token.pp t

let expect_newline p =
  match peek p with
  | Token.NEWLINE, _ ->
    advance p;
    ()
  | Token.EOF, _ -> ()
  | t, l -> Loc.error l "expected end of line but found %a" Token.pp t

let skip_newlines p =
  while Token.equal (peek_tok p) Token.NEWLINE do
    advance p
  done

let ident p what =
  match peek p with
  | Token.IDENT s, _ ->
    advance p;
    s
  | t, l -> Loc.error l "expected %s but found %a" what Token.pp t

(* ---------------- expressions ---------------- *)

let rec parse_expr p = parse_or p

and parse_or p =
  let lhs = parse_and p in
  let rec go lhs =
    match peek p with
    | Token.OR, l ->
      advance p;
      let rhs = parse_and p in
      go { eloc = l; edesc = Ebinop (Or, lhs, rhs) }
    | _ -> lhs
  in
  go lhs

and parse_and p =
  let lhs = parse_not p in
  let rec go lhs =
    match peek p with
    | Token.AND, l ->
      advance p;
      let rhs = parse_not p in
      go { eloc = l; edesc = Ebinop (And, lhs, rhs) }
    | _ -> lhs
  in
  go lhs

and parse_not p =
  match peek p with
  | Token.NOT, l ->
    advance p;
    let e = parse_not p in
    { eloc = l; edesc = Eunop (Not, e) }
  | _ -> parse_rel p

and parse_rel p =
  let lhs = parse_additive p in
  let op =
    match peek_tok p with
    | Token.LT -> Some Lt
    | Token.LE -> Some Le
    | Token.GT -> Some Gt
    | Token.GE -> Some Ge
    | Token.EQ -> Some Eq
    | Token.NE -> Some Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    let l = loc_of p in
    advance p;
    let rhs = parse_additive p in
    { eloc = l; edesc = Ebinop (op, lhs, rhs) }

and parse_additive p =
  let lhs = parse_multiplicative p in
  let rec go lhs =
    match peek p with
    | Token.PLUS, l ->
      advance p;
      let rhs = parse_multiplicative p in
      go { eloc = l; edesc = Ebinop (Add, lhs, rhs) }
    | Token.MINUS, l ->
      advance p;
      let rhs = parse_multiplicative p in
      go { eloc = l; edesc = Ebinop (Sub, lhs, rhs) }
    | _ -> lhs
  in
  go lhs

and parse_multiplicative p =
  let lhs = parse_unary p in
  let rec go lhs =
    match peek p with
    | Token.STAR, l ->
      advance p;
      let rhs = parse_unary p in
      go { eloc = l; edesc = Ebinop (Mul, lhs, rhs) }
    | Token.SLASH, l ->
      advance p;
      let rhs = parse_unary p in
      go { eloc = l; edesc = Ebinop (Div, lhs, rhs) }
    | _ -> lhs
  in
  go lhs

and parse_unary p =
  match peek p with
  | Token.MINUS, l ->
    advance p;
    let e = parse_unary p in
    { eloc = l; edesc = Eunop (Neg, e) }
  | Token.PLUS, _ ->
    advance p;
    parse_unary p
  | _ -> parse_power p

and parse_power p =
  let base = parse_primary p in
  match peek p with
  | Token.POWER, l ->
    advance p;
    (* ** is right-associative, binds tighter than unary minus on the right *)
    let exponent = parse_unary p in
    { eloc = l; edesc = Ebinop (Pow, base, exponent) }
  | _ -> base

and parse_primary p =
  match peek p with
  | Token.INT n, l ->
    advance p;
    { eloc = l; edesc = Eint n }
  | Token.REAL f, l ->
    advance p;
    { eloc = l; edesc = Ereal f }
  | Token.TRUE, l ->
    advance p;
    { eloc = l; edesc = Ebool true }
  | Token.FALSE, l ->
    advance p;
    { eloc = l; edesc = Ebool false }
  | Token.STRING s, l ->
    advance p;
    { eloc = l; edesc = Estring s }
  | Token.IDENT name, l ->
    advance p;
    if Token.equal (peek_tok p) Token.LPAREN then begin
      advance p;
      let args = parse_expr_list p in
      expect p Token.RPAREN ")";
      { eloc = l; edesc = Eapply (name, args) }
    end
    else { eloc = l; edesc = Ename name }
  | Token.LPAREN, _ ->
    advance p;
    let e = parse_expr p in
    expect p Token.RPAREN ")";
    e
  | t, l -> Loc.error l "expected an expression but found %a" Token.pp t

and parse_expr_list p =
  if Token.equal (peek_tok p) Token.RPAREN then []
  else
    let rec go acc =
      let e = parse_expr p in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []

(* ---------------- statements ---------------- *)

let parse_lhs p =
  let l = loc_of p in
  let name = ident p "a variable name" in
  if Token.equal (peek_tok p) Token.LPAREN then begin
    advance p;
    let idx = parse_expr_list p in
    expect p Token.RPAREN ")";
    { lloc = l; lname = name; lindex = idx }
  end
  else { lloc = l; lname = name; lindex = [] }

let at_block_end p =
  match peek_tok p with
  | Token.KW_END ->
    (* plain "end" (unit end) also terminates statement parsing *)
    true
  | Token.KW_ENDIF | Token.KW_ENDDO | Token.KW_ELSE | Token.KW_ELSEIF -> true
  | Token.EOF -> true
  | _ -> false

let rec parse_stmts p =
  skip_newlines p;
  if at_block_end p then []
  else
    match parse_stmt p with
    | s -> s :: parse_stmts p
    | exception Loc.Error (l, m) when p.recover <> None ->
      report p l m;
      sync_stmt p;
      parse_stmts p

(* Statement-boundary resynchronization: drop tokens to the end of the
   current line (or a block-closing keyword, which parse_stmts treats as
   its stop condition).  A failed parse_stmt either consumed a token or
   left one this loop consumes, so recovery always makes progress. *)
and sync_stmt p =
  match peek_tok p with
  | Token.NEWLINE -> advance p
  | Token.EOF | Token.KW_END | Token.KW_ENDIF | Token.KW_ENDDO
  | Token.KW_ELSE | Token.KW_ELSEIF ->
    ()
  | _ ->
    advance p;
    sync_stmt p

and parse_stmt p =
  let label =
    match peek p with
    | Token.INT n, _ ->
      advance p;
      Some n
    | _ -> None
  in
  let l = loc_of p in
  match peek_tok p with
  | Token.KW_IF -> parse_if p label l
  | Token.KW_DO -> parse_do p label l
  | _ ->
    let sdesc = parse_simple p in
    expect_newline p;
    { sloc = l; label; sdesc }

(* A simple (single-line) statement, without consuming the newline. *)
and parse_simple p =
  let _, l = peek p in
  match peek_tok p with
  | Token.KW_CALL ->
    advance p;
    let name = ident p "a subroutine name" in
    let args =
      if Token.equal (peek_tok p) Token.LPAREN then begin
        advance p;
        let args = parse_expr_list p in
        expect p Token.RPAREN ")";
        args
      end
      else []
    in
    Scall (name, args)
  | Token.KW_GOTO ->
    advance p;
    (match peek p with
    | Token.INT n, _ ->
      advance p;
      Sgoto n
    | t, l -> Loc.error l "expected a statement label after goto, found %a" Token.pp t)
  | Token.KW_CONTINUE ->
    advance p;
    Scontinue
  | Token.KW_RETURN ->
    advance p;
    Sreturn
  | Token.KW_STOP ->
    advance p;
    Sstop
  | Token.KW_PRINT ->
    advance p;
    expect p Token.STAR "'*' after print";
    let args =
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        let rec go acc =
          let e = parse_expr p in
          if Token.equal (peek_tok p) Token.COMMA then begin
            advance p;
            go (e :: acc)
          end
          else List.rev (e :: acc)
        in
        go []
      end
      else []
    in
    Sprint args
  | Token.KW_READ ->
    advance p;
    expect p Token.STAR "'*' after read";
    expect p Token.COMMA ",";
    let rec go acc =
      let lhs = parse_lhs p in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        go (lhs :: acc)
      end
      else List.rev (lhs :: acc)
    in
    Sread (go [])
  | Token.IDENT _ ->
    let lhs = parse_lhs p in
    expect p Token.EQUALS "'='";
    let e = parse_expr p in
    Sassign (lhs, e)
  | t -> Loc.error l "expected a statement but found %a" Token.pp t

and parse_if p label l =
  expect p Token.KW_IF "if";
  expect p Token.LPAREN "(";
  let cond = parse_expr p in
  expect p Token.RPAREN ")";
  if Token.equal (peek_tok p) Token.KW_THEN then begin
    advance p;
    expect_newline p;
    let body = parse_stmts p in
    let rec arms acc =
      match peek_tok p with
      | Token.KW_ELSEIF ->
        advance p;
        elseif_tail acc
      | Token.KW_ELSE when Token.equal (peek2_tok p) Token.KW_IF ->
        advance p;
        advance p;
        elseif_tail acc
      | Token.KW_ELSE ->
        advance p;
        expect_newline p;
        let else_body = parse_stmts p in
        close_if p;
        (List.rev acc, else_body)
      | _ ->
        close_if p;
        (List.rev acc, [])
    and elseif_tail acc =
      expect p Token.LPAREN "(";
      let c = parse_expr p in
      expect p Token.RPAREN ")";
      expect p Token.KW_THEN "then";
      expect_newline p;
      let b = parse_stmts p in
      arms ((c, b) :: acc)
    in
    let more_arms, else_body = arms [] in
    { sloc = l; label; sdesc = Sif ((cond, body) :: more_arms, else_body) }
  end
  else begin
    (* logical if: a single simple statement on the same line *)
    let sdesc = parse_simple p in
    expect_newline p;
    let inner = { sloc = l; label = None; sdesc } in
    { sloc = l; label; sdesc = Sif ([ (cond, [ inner ]) ], []) }
  end

and close_if p =
  match peek_tok p with
  | Token.KW_ENDIF ->
    advance p;
    expect_newline p
  | Token.KW_END when Token.equal (peek2_tok p) Token.KW_IF ->
    advance p;
    advance p;
    expect_newline p
  | t -> Loc.error (loc_of p) "expected 'end if' but found %a" Token.pp t

and parse_do p label l =
  expect p Token.KW_DO "do";
  if Token.equal (peek_tok p) Token.KW_WHILE then begin
    advance p;
    expect p Token.LPAREN "(";
    let cond = parse_expr p in
    expect p Token.RPAREN ")";
    expect_newline p;
    let body = parse_stmts p in
    close_do p;
    { sloc = l; label; sdesc = Sdowhile (cond, body) }
  end
  else begin
    let v = ident p "a loop variable" in
    expect p Token.EQUALS "'='";
    let lo = parse_expr p in
    expect p Token.COMMA ",";
    let hi = parse_expr p in
    let step =
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        Some (parse_expr p)
      end
      else None
    in
    expect_newline p;
    let body = parse_stmts p in
    close_do p;
    { sloc = l; label; sdesc = Sdo (v, lo, hi, step, body) }
  end

and close_do p =
  match peek_tok p with
  | Token.KW_ENDDO ->
    advance p;
    expect_newline p
  | Token.KW_END when Token.equal (peek2_tok p) Token.KW_DO ->
    advance p;
    advance p;
    expect_newline p
  | t -> Loc.error (loc_of p) "expected 'end do' but found %a" Token.pp t

(* ---------------- declarations ---------------- *)

let rec parse_decls p =
  skip_newlines p;
  match peek_tok p with
  | Token.KW_INTEGER | Token.KW_REAL | Token.KW_LOGICAL ->
    let ty =
      match peek_tok p with
      | Token.KW_INTEGER -> Tint
      | Token.KW_REAL -> Treal
      | _ -> Tlogical
    in
    advance p;
    let rec items acc =
      let name = ident p "a variable name" in
      let dims =
        if Token.equal (peek_tok p) Token.LPAREN then begin
          advance p;
          let rec go acc =
            match peek p with
            | Token.INT n, _ ->
              advance p;
              if Token.equal (peek_tok p) Token.COMMA then begin
                advance p;
                go (n :: acc)
              end
              else List.rev (n :: acc)
            | t, l ->
              Loc.error l "expected an integer array bound, found %a" Token.pp t
          in
          let ds = go [] in
          expect p Token.RPAREN ")";
          ds
        end
        else []
      in
      let acc = (name, dims) :: acc in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        items acc
      end
      else List.rev acc
    in
    let its = items [] in
    expect_newline p;
    Dtype (ty, its) :: parse_decls p
  | Token.KW_COMMON ->
    advance p;
    expect p Token.SLASH "/";
    let block = ident p "a common block name" in
    expect p Token.SLASH "/";
    let rec names acc =
      let n = ident p "a variable name" in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        names (n :: acc)
      end
      else List.rev (n :: acc)
    in
    let ns = names [] in
    expect_newline p;
    Dcommon (block, ns) :: parse_decls p
  | Token.KW_DATA ->
    advance p;
    (* data name /values/ [, name /values/]... ; a value is an optionally
       repeated literal: [n*]lit, with lit an optionally negated number or
       a logical constant *)
    let parse_lit () =
      let neg =
        if Token.equal (peek_tok p) Token.MINUS then begin
          advance p;
          true
        end
        else false
      in
      match peek p with
      | Token.INT n, _ ->
        advance p;
        Ast.Dlit_int (if neg then -n else n)
      | Token.REAL f, _ ->
        advance p;
        Ast.Dlit_real (if neg then -.f else f)
      | Token.TRUE, l ->
        advance p;
        if neg then Loc.error l "cannot negate a logical constant";
        Ast.Dlit_bool true
      | Token.FALSE, l ->
        advance p;
        if neg then Loc.error l "cannot negate a logical constant";
        Ast.Dlit_bool false
      | t, l -> Loc.error l "expected a data constant, found %a" Token.pp t
    in
    let parse_value () =
      (* lookahead: INT STAR lit is a repeat count *)
      match (peek_tok p, peek2_tok p) with
      | Token.INT n, Token.STAR ->
        advance p;
        advance p;
        { Ast.dv_repeat = n; dv_lit = parse_lit () }
      | _ -> { Ast.dv_repeat = 1; dv_lit = parse_lit () }
    in
    let parse_item () =
      let name = ident p "a variable name" in
      expect p Token.SLASH "/";
      let rec values acc =
        let v = parse_value () in
        if Token.equal (peek_tok p) Token.COMMA then begin
          advance p;
          values (v :: acc)
        end
        else List.rev (v :: acc)
      in
      let vs = values [] in
      expect p Token.SLASH "/";
      (name, vs)
    in
    let rec items acc =
      let item = parse_item () in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        items (item :: acc)
      end
      else List.rev (item :: acc)
    in
    let its = items [] in
    expect_newline p;
    Ddata its :: parse_decls p
  | Token.KW_PARAMETER ->
    advance p;
    expect p Token.LPAREN "(";
    let rec pairs acc =
      let n = ident p "a parameter name" in
      expect p Token.EQUALS "'='";
      let e = parse_expr p in
      if Token.equal (peek_tok p) Token.COMMA then begin
        advance p;
        pairs ((n, e) :: acc)
      end
      else List.rev ((n, e) :: acc)
    in
    let ps = pairs [] in
    expect p Token.RPAREN ")";
    expect_newline p;
    Dparameter ps :: parse_decls p
  | _ -> []

(* ---------------- program units ---------------- *)

let parse_formals p =
  if Token.equal (peek_tok p) Token.LPAREN then begin
    advance p;
    if Token.equal (peek_tok p) Token.RPAREN then begin
      advance p;
      []
    end
    else begin
      let rec go acc =
        let n = ident p "a formal parameter name" in
        if Token.equal (peek_tok p) Token.COMMA then begin
          advance p;
          go (n :: acc)
        end
        else List.rev (n :: acc)
      in
      let fs = go [] in
      expect p Token.RPAREN ")";
      fs
    end
  end
  else []

let parse_unit p : punit =
  skip_newlines p;
  let l = loc_of p in
  let kind =
    match peek_tok p with
    | Token.KW_PROGRAM -> Uprogram
    | Token.KW_SUBROUTINE -> Usubroutine
    | Token.KW_FUNCTION -> Ufunction
    | t ->
      Loc.error l "expected 'program', 'subroutine' or 'function', found %a"
        Token.pp t
  in
  advance p;
  let name = ident p "a unit name" in
  let formals = parse_formals p in
  (match kind with
  | Uprogram when formals <> [] ->
    Loc.error l "a program unit takes no parameters"
  | _ -> ());
  expect_newline p;
  let decls = parse_decls p in
  let body = parse_stmts p in
  expect p Token.KW_END "'end'";
  expect_newline p;
  { ukind = kind; uname = name; uformals = formals; udecls = decls; ubody = body; uloc = l }

(* Program units up to EOF.  In recovery mode a unit-level error drops
   tokens until the next unit keyword (or EOF). *)
let parse_units p : program =
  let rec sync_unit () =
    match peek_tok p with
    | Token.EOF | Token.KW_PROGRAM | Token.KW_SUBROUTINE | Token.KW_FUNCTION ->
      ()
    | _ ->
      advance p;
      sync_unit ()
  in
  let rec go acc =
    skip_newlines p;
    if Token.equal (peek_tok p) Token.EOF then List.rev acc
    else
      let before = p.consumed in
      match parse_unit p with
      | u -> go (u :: acc)
      | exception Loc.Error (l, m) when p.recover <> None ->
        report p l m;
        (* the error may sit on a unit keyword with nothing consumed;
           force progress before seeking the next unit *)
        if p.consumed = before then advance p;
        sync_unit ();
        go acc
  in
  go []

(** Parse a whole source file into a list of program units.  Tokens
    stream from the lexer as the parser consumes them.  With [recover],
    errors accumulate there instead of raising, and parsing
    resynchronizes — at the next line for statement-level errors, at the
    next unit keyword for unit-level ones — so a single run reports every
    independent problem.  Lexical errors ([E-LEX]) are collected apart
    and added ahead of the syntax errors ([E-PARSE]).  The returned units
    are those that parsed cleanly enough to resolve. *)
let parse_program ?(file = "<input>") ?recover src : program =
  match recover with
  | None -> parse_units (create (Lexer.create ~file src))
  | Some diags ->
    let module D = Ipcp_support.Diagnostics in
    let lexical = D.create () and syntax = D.create () in
    let lexer =
      Lexer.create ~file ~report:(Loc.report lexical ~code:"E-LEX") src
    in
    let units = parse_units (create ~recover:syntax lexer) in
    List.iter (D.add diags) (D.to_list lexical);
    List.iter (D.add diags) (D.to_list syntax);
    units

(** Parse a single expression (used by tests and the workload generator). *)
let parse_expression ?(file = "<expr>") src : expr =
  let p = create (Lexer.create ~file src) in
  let e = parse_expr p in
  skip_newlines p;
  (match peek p with
  | Token.EOF, _ -> ()
  | t, l -> Loc.error l "trailing input after expression: %a" Token.pp t);
  e
