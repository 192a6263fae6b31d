(** Recursive-descent parser for mini-C, with C operator precedence
    (logical or lowest; then logical and; bitwise or/xor/and; equality;
    relational; shifts; additive; multiplicative; unary). All binary
    operators associate left. *)

exception Error of string * int
(** Message and byte offset. *)

val parse_program : string -> Ast.routine list
(** Parse a whole source file of one or more routines. Tokens are pulled
    from a {!Lexer.t} cursor as the parse needs them.
    @raise Error (or {!Lexer.Error}) on malformed input, including a
    routine that names the same parameter twice and a [break] or
    [continue] with no enclosing [while] (at the keyword). A lex error
    anywhere in the file wins over a parse error before it: on a parse
    error the rest of the file is still lexed. *)

val parse_one : string -> Ast.routine
(** Parse a file expected to hold exactly one routine. *)
