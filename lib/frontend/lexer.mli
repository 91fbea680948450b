(** Hand-written lexer for MiniFort source text. *)

type t

(** Create a lexer over a whole source string.  With [report], the lexer
    is in recovery mode: {!next} passes each lexical error to [report] and
    resynchronizes at the next end of line instead of raising. *)
val create :
  ?file:string -> ?report:(Loc.t -> string -> unit) -> string -> t

(** Next token with its starting location.  After the end of input, returns
    [EOF] forever.  Raises {!Loc.Error} on malformed input, unless the
    lexer is in recovery mode. *)
val next : t -> Token.t * Loc.t

(** Tokenize an entire source string; the result ends with [EOF]. *)
val tokenize : ?file:string -> string -> (Token.t * Loc.t) list
