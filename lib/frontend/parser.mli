(** Recursive-descent parser for MiniFort. *)

(** Parse a whole source file into raw program units.
    Raises {!Loc.Error} on syntax errors. *)
val parse_program : ?file:string -> string -> Ast.program

(** The parsing half of {!parse_program}, over the tokens of
    {!Lexer.tokenize}. *)
val parse_tokens : (Token.t * Loc.t) list -> Ast.program

(** Recovery-mode parsing of the tokens of {!Lexer.tokenize_collect}:
    syntax errors accumulate in the given diagnostics (code [E-PARSE])
    and parsing resynchronizes at statement and unit boundaries, so one
    run reports every independent problem.  Returns the units that
    parsed. *)
val parse_tokens_collect :
  Ipcp_support.Diagnostics.t -> (Token.t * Loc.t) list -> Ast.program

(** Parse a single expression (testing / workload-generation helper). *)
val parse_expression : ?file:string -> string -> Ast.expr
