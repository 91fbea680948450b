(** Hand-written lexer for MiniFort.

    The language is case-insensitive (everything is lowercased), newlines are
    significant, [!] starts a comment that runs to end of line, and a [&] as
    the last non-blank character of a line continues the statement onto the
    next line.  Dotted operators ([.lt.], [.and.], ...) follow FORTRAN
    spelling. *)

type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
  mutable last_was_newline : bool;
      (** used to collapse runs of blank lines into one NEWLINE *)
  report : (Loc.t -> string -> unit) option;
      (** recovery mode: lexical errors go here instead of raising *)
}

let create ?(file = "<input>") ?report src =
  { src; file; pos = 0; line = 1; bol = 0; last_was_newline = true; report }

(* Built in place rather than through [Loc.make]: one location per token. *)
let loc t = { Loc.file = t.file; line = t.line; col = t.pos - t.bol + 1 }

let at_end t = t.pos >= String.length t.src

let peek_char t = if at_end t then '\000' else t.src.[t.pos]

let peek_char2 t =
  if t.pos + 1 >= String.length t.src then '\000' else t.src.[t.pos + 1]

let advance t = t.pos <- t.pos + 1

let newline t =
  advance t;
  t.line <- t.line + 1;
  t.bol <- t.pos

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c
let lower c = Char.lowercase_ascii c

(* Skip spaces, tabs, carriage returns and comments; stop at newline. *)
let rec skip_blanks t =
  match peek_char t with
  | ' ' | '\t' | '\r' ->
    advance t;
    skip_blanks t
  | '!' ->
    while (not (at_end t)) && peek_char t <> '\n' do
      advance t
    done;
    skip_blanks t
  | '&' ->
    (* Continuation: consume '&', trailing blanks/comment, and the newline. *)
    let save = t.pos in
    advance t;
    let rec to_eol () =
      match peek_char t with
      | ' ' | '\t' | '\r' ->
        advance t;
        to_eol ()
      | '!' ->
        while (not (at_end t)) && peek_char t <> '\n' do
          advance t
        done;
        to_eol ()
      | '\n' ->
        newline t;
        true
      | _ -> false
    in
    if to_eol () then skip_blanks t
    else begin
      (* A '&' not at end of line is an error; restore and let scan report. *)
      t.pos <- save
    end
  | _ -> ()

(* [lex_number], [lex_dotted] and [lex_string] start at the token, so
   they report errors at its location [start_loc]. *)
let lex_number t start_loc =
  let start = t.pos in
  while is_digit (peek_char t) do
    advance t
  done;
  let is_real =
    (* A '.' starts a fractional part only if NOT followed by a letter
       (".lt." etc. are operators) — FORTRAN's classic lexical wart. *)
    peek_char t = '.' && not (is_alpha (peek_char2 t))
  in
  if is_real then begin
    advance t;
    while is_digit (peek_char t) do
      advance t
    done;
    (match peek_char t with
    | 'e' | 'E' | 'd' | 'D' ->
      let save = t.pos in
      advance t;
      (match peek_char t with '+' | '-' -> advance t | _ -> ());
      if is_digit (peek_char t) then
        while is_digit (peek_char t) do
          advance t
        done
      else t.pos <- save
    | _ -> ());
    let text = String.sub t.src start (t.pos - start) in
    let text = String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c) text in
    match float_of_string_opt text with
    | Some f -> Token.REAL f
    | None -> Loc.error start_loc "malformed real literal %S" text
  end
  else begin
    let text = String.sub t.src start (t.pos - start) in
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None -> Loc.error start_loc "integer literal out of range: %s" text
  end

let lex_ident t =
  let start = t.pos in
  let upper = ref false in
  let c = ref (peek_char t) in
  while is_alnum !c do
    if !c >= 'A' && !c <= 'Z' then upper := true;
    advance t;
    c := peek_char t
  done;
  let text = String.sub t.src start (t.pos - start) in
  let text = if !upper then String.lowercase_ascii text else text in
  match Token.of_keyword text with Some kw -> kw | None -> Token.IDENT text

(* Dotted operator or start of a real literal like ".5". *)
let lex_dotted t start_loc =
  if is_digit (peek_char2 t) then begin
    (* .5 style real literal *)
    let start = t.pos in
    advance t;
    while is_digit (peek_char t) do
      advance t
    done;
    let text = "0" ^ String.sub t.src start (t.pos - start) in
    match float_of_string_opt text with
    | Some f -> Token.REAL f
    | None -> Loc.error start_loc "malformed real literal"
  end
  else begin
    advance t;
    let start = t.pos in
    while is_alpha (peek_char t) do
      advance t
    done;
    let word = String.lowercase_ascii (String.sub t.src start (t.pos - start)) in
    if peek_char t <> '.' then
      Loc.error start_loc "malformed dotted operator .%s" word;
    advance t;
    match word with
    | "lt" -> Token.LT
    | "le" -> Token.LE
    | "gt" -> Token.GT
    | "ge" -> Token.GE
    | "eq" -> Token.EQ
    | "ne" -> Token.NE
    | "and" -> Token.AND
    | "or" -> Token.OR
    | "not" -> Token.NOT
    | "true" -> Token.TRUE
    | "false" -> Token.FALSE
    | w -> Loc.error start_loc "unknown dotted operator .%s." w
  end

let lex_string t start_loc =
  let quote = peek_char t in
  advance t;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end t then Loc.error start_loc "unterminated string literal"
    else
      let c = peek_char t in
      if c = quote then
        if peek_char2 t = quote then begin
          (* doubled quote escapes itself *)
          Buffer.add_char buf quote;
          advance t;
          advance t;
          go ()
        end
        else advance t
      else if c = '\n' then Loc.error start_loc "unterminated string literal"
      else begin
        Buffer.add_char buf c;
        advance t;
        go ()
      end
  in
  go ();
  Token.STRING (Buffer.contents buf)

(* The next token and its starting location.  Runs of blank lines
   collapse into a single [NEWLINE]. *)
let rec scan t : Token.t * Loc.t =
  skip_blanks t;
  let l = loc t in
  if at_end t then begin
    if t.last_was_newline then (Token.EOF, l)
    else begin
      t.last_was_newline <- true;
      (Token.NEWLINE, l)
    end
  end
  else
    let c = peek_char t in
    if c = '\n' then begin
      newline t;
      if t.last_was_newline then scan t
      else begin
        t.last_was_newline <- true;
        (Token.NEWLINE, l)
      end
    end
    else begin
      t.last_was_newline <- false;
      let tok =
        if is_digit c then lex_number t l
        else if is_alpha c then lex_ident t
        else if c = '.' then lex_dotted t l
        else if c = '\'' || c = '"' then lex_string t l
        else begin
          advance t;
          match c with
          | '(' -> Token.LPAREN
          | ')' -> Token.RPAREN
          | ',' -> Token.COMMA
          | '=' -> Token.EQUALS
          | '+' -> Token.PLUS
          | '-' -> Token.MINUS
          | '*' -> if peek_char t = '*' then (advance t; Token.POWER) else Token.STAR
          | '/' -> Token.SLASH
          | '&' -> Loc.error l "continuation '&' must end a line"
          | c -> Loc.error l "unexpected character %C" (lower c)
        end
      in
      (tok, l)
    end

(** Return the next token and its starting location.  In recovery mode a
    lexical error is reported and the lexer resynchronizes at the next end
    of line, so one bad literal doesn't hide every later diagnostic: the
    malformed span contributes no tokens, and the parser then recovers at
    the NEWLINE boundary. *)
let rec next t : Token.t * Loc.t =
  match t.report with
  | None -> scan t
  | Some report -> (
    match scan t with
    | tl -> tl
    | exception Loc.Error (l, m) ->
      report l m;
      (* every error path has consumed at least one character, so
         skipping to the newline guarantees progress *)
      while (not (at_end t)) && peek_char t <> '\n' do
        advance t
      done;
      next t)

(** Tokenize an entire source string; the result always ends with [EOF]. *)
let tokenize ?(file = "<input>") src : (Token.t * Loc.t) list =
  let t = create ~file src in
  let rec go acc =
    let tok, l = next t in
    match tok with Token.EOF -> List.rev ((tok, l) :: acc) | _ -> go ((tok, l) :: acc)
  in
  go []
