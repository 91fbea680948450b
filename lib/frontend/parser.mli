(** Recursive-descent parser for MiniFort. *)

(** Parse a whole source file into raw program units, pulling tokens from
    the lexer as it goes.  Without [recover], the first lexical or syntax
    error raises {!Loc.Error}.  With [recover], errors accumulate there
    and parsing resynchronizes at statement and unit boundaries, so one
    run reports every independent problem: every lexical error
    ([E-LEX]) comes first, then the syntax errors ([E-PARSE]).  Returns
    the units that parsed, and adds the number of tokens consumed to the
    [parse.tokens] counter. *)
val parse_program :
  ?file:string -> ?recover:Ipcp_support.Diagnostics.t -> string -> Ast.program

(** Parse a single expression (testing / workload-generation helper). *)
val parse_expression : ?file:string -> string -> Ast.expr
