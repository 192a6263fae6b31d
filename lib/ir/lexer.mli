(** Hand-written lexer for mini-C. *)

type token =
  | INT of int
  | IDENT of string
  | KW_ROUTINE
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_BREAK
  | KW_CONTINUE
  | KW_RETURN
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | COLON
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | BAR
  | CARET
  | SHL
  | SHR
  | ANDAND
  | BARBAR
  | BANG
  | TILDE
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Error of string * int
(** Message and byte offset of the offending character. *)

type t = private { src : string; mutable tok : token; mutable off : int; mutable pos : int }
(** A pull cursor over a source: [tok] is the current token and [off] its
    byte offset; [pos] is the first byte not yet scanned. Comments run from
    ['#'] or ["//"] to end of line. *)

val create : string -> t
(** A cursor on the first token.
    @raise Error as {!next}. *)

val next : t -> unit
(** Advance to the next token; at end of input the cursor stays on [EOF].
    @raise Error on a character outside the language, or on an integer
    literal above [max_int] (at the literal's first digit). *)

val tokenize : string -> (token * int) list
(** Every token with its byte offset, ending with [EOF].
    @raise Error as {!next}. *)

val line_col : string -> int -> int * int
(** [line_col src off]: the 1-based line and column of byte offset [off]. *)

val string_of_token : token -> string
