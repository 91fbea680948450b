(** Tokens of the MiniFort language.

    MiniFort is case-insensitive: the lexer lowercases identifiers and
    keywords.  Newlines are significant (they terminate statements), so the
    token stream contains explicit [NEWLINE] tokens; a trailing [&] joins
    physical lines. *)

type t =
  (* literals *)
  | INT of int
  | REAL of float
  | STRING of string
  | TRUE
  | FALSE
  (* identifiers and keywords *)
  | IDENT of string
  | KW_PROGRAM
  | KW_SUBROUTINE
  | KW_FUNCTION
  | KW_INTEGER
  | KW_REAL
  | KW_LOGICAL
  | KW_COMMON
  | KW_PARAMETER
  | KW_DATA
  | KW_CALL
  | KW_IF
  | KW_THEN
  | KW_ELSE
  | KW_ELSEIF
  | KW_ENDIF
  | KW_DO
  | KW_WHILE
  | KW_ENDDO
  | KW_GOTO
  | KW_CONTINUE
  | KW_RETURN
  | KW_STOP
  | KW_END
  | KW_PRINT
  | KW_READ
  (* punctuation and operators *)
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POWER (* ** *)
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | AND
  | OR
  | NOT
  | NEWLINE
  | EOF

(* A match on the string compiles to a decision tree: no start-up work,
   and no scan of the keyword list per identifier. *)
let of_keyword = function
  | "program" -> Some KW_PROGRAM
  | "subroutine" -> Some KW_SUBROUTINE
  | "function" -> Some KW_FUNCTION
  | "integer" -> Some KW_INTEGER
  | "real" -> Some KW_REAL
  | "logical" -> Some KW_LOGICAL
  | "common" -> Some KW_COMMON
  | "parameter" -> Some KW_PARAMETER
  | "data" -> Some KW_DATA
  | "call" -> Some KW_CALL
  | "if" -> Some KW_IF
  | "then" -> Some KW_THEN
  | "else" -> Some KW_ELSE
  | "elseif" -> Some KW_ELSEIF
  | "endif" -> Some KW_ENDIF
  | "do" -> Some KW_DO
  | "while" -> Some KW_WHILE
  | "enddo" -> Some KW_ENDDO
  | "goto" -> Some KW_GOTO
  | "continue" -> Some KW_CONTINUE
  | "return" -> Some KW_RETURN
  | "stop" -> Some KW_STOP
  | "end" -> Some KW_END
  | "print" -> Some KW_PRINT
  | "read" -> Some KW_READ
  | _ -> None

let pp ppf = function
  | INT n -> Fmt.pf ppf "INT(%d)" n
  | REAL f -> Fmt.pf ppf "REAL(%g)" f
  | STRING s -> Fmt.pf ppf "STRING(%S)" s
  | TRUE -> Fmt.string ppf ".true."
  | FALSE -> Fmt.string ppf ".false."
  | IDENT s -> Fmt.pf ppf "IDENT(%s)" s
  | KW_PROGRAM -> Fmt.string ppf "program"
  | KW_SUBROUTINE -> Fmt.string ppf "subroutine"
  | KW_FUNCTION -> Fmt.string ppf "function"
  | KW_INTEGER -> Fmt.string ppf "integer"
  | KW_REAL -> Fmt.string ppf "real"
  | KW_LOGICAL -> Fmt.string ppf "logical"
  | KW_COMMON -> Fmt.string ppf "common"
  | KW_PARAMETER -> Fmt.string ppf "parameter"
  | KW_DATA -> Fmt.string ppf "data"
  | KW_CALL -> Fmt.string ppf "call"
  | KW_IF -> Fmt.string ppf "if"
  | KW_THEN -> Fmt.string ppf "then"
  | KW_ELSE -> Fmt.string ppf "else"
  | KW_ELSEIF -> Fmt.string ppf "elseif"
  | KW_ENDIF -> Fmt.string ppf "endif"
  | KW_DO -> Fmt.string ppf "do"
  | KW_WHILE -> Fmt.string ppf "while"
  | KW_ENDDO -> Fmt.string ppf "enddo"
  | KW_GOTO -> Fmt.string ppf "goto"
  | KW_CONTINUE -> Fmt.string ppf "continue"
  | KW_RETURN -> Fmt.string ppf "return"
  | KW_STOP -> Fmt.string ppf "stop"
  | KW_END -> Fmt.string ppf "end"
  | KW_PRINT -> Fmt.string ppf "print"
  | KW_READ -> Fmt.string ppf "read"
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | COMMA -> Fmt.string ppf ","
  | EQUALS -> Fmt.string ppf "="
  | PLUS -> Fmt.string ppf "+"
  | MINUS -> Fmt.string ppf "-"
  | STAR -> Fmt.string ppf "*"
  | SLASH -> Fmt.string ppf "/"
  | POWER -> Fmt.string ppf "**"
  | LT -> Fmt.string ppf ".lt."
  | LE -> Fmt.string ppf ".le."
  | GT -> Fmt.string ppf ".gt."
  | GE -> Fmt.string ppf ".ge."
  | EQ -> Fmt.string ppf ".eq."
  | NE -> Fmt.string ppf ".ne."
  | AND -> Fmt.string ppf ".and."
  | OR -> Fmt.string ppf ".or."
  | NOT -> Fmt.string ppf ".not."
  | NEWLINE -> Fmt.string ppf "<newline>"
  | EOF -> Fmt.string ppf "<eof>"

let to_string t = Fmt.str "%a" pp t

(* By constructor, not with polymorphic equality: the parser compares the
   current token on nearly every step. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | INT x, INT y -> Int.equal x y
  | REAL x, REAL y -> x = y
  | STRING x, STRING y | IDENT x, IDENT y -> String.equal x y
  | (INT _ | REAL _ | STRING _ | IDENT _), _ | _, (INT _ | REAL _ | STRING _ | IDENT _) -> false
  | _ -> a == b
