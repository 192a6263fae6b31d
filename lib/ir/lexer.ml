(* Hand-written lexer for mini-C. *)

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
  | ASSIGN (* = *)
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
  | EQ (* == *)
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Error of string * int (* message, offset *)

let keyword = function
  | "routine" -> Some KW_ROUTINE
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | "return" -> Some KW_RETURN
  | "switch" -> Some KW_SWITCH
  | "case" -> Some KW_CASE
  | "default" -> Some KW_DEFAULT
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* A pull cursor: [tok] is the current token, [off] its byte offset and
   [pos] the first byte not yet scanned. At end of input it stays on [EOF]. *)
type t = { src : string; mutable tok : token; mutable off : int; mutable pos : int }

let set st tok off pos =
  st.tok <- tok;
  st.off <- off;
  st.pos <- pos

let one st tok i = set st tok i (i + 1)
let two st tok i = set st tok i (i + 2)

let rec skip_line src i =
  if i < String.length src && src.[i] <> '\n' then skip_line src (i + 1) else i

(* Scans the token at or after byte [i]. *)
let rec scan st i =
  let src = st.src in
  let n = String.length src in
  if i >= n then set st EOF n n
  else
    let c = src.[i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then scan st (i + 1)
    else if c = '#' then scan st (skip_line src i)
    else if c = '/' && i + 1 < n && src.[i + 1] = '/' then scan st (skip_line src i)
    else if is_digit c then begin
      let j = ref i and v = ref 0 in
      while !j < n && is_digit src.[!j] do
        let d = Char.code src.[!j] - Char.code '0' in
        if !v > (max_int - d) / 10 then raise (Error ("integer literal out of range", i));
        v := (!v * 10) + d;
        incr j
      done;
      set st (INT !v) i !j
    end
    else if is_ident_start c then begin
      let j = ref i in
      while !j < n && is_ident src.[!j] do
        incr j
      done;
      let word = String.sub src i (!j - i) in
      set st (match keyword word with Some k -> k | None -> IDENT word) i !j
    end
    else
      let next = if i + 1 < n then src.[i + 1] else '\000' in
      match (c, next) with
      | '=', '=' -> two st EQ i
      | '!', '=' -> two st NE i
      | '<', '=' -> two st LE i
      | '>', '=' -> two st GE i
      | '<', '<' -> two st SHL i
      | '>', '>' -> two st SHR i
      | '&', '&' -> two st ANDAND i
      | '|', '|' -> two st BARBAR i
      | '=', _ -> one st ASSIGN i
      | '<', _ -> one st LT i
      | '>', _ -> one st GT i
      | '+', _ -> one st PLUS i
      | '-', _ -> one st MINUS i
      | '*', _ -> one st STAR i
      | '/', _ -> one st SLASH i
      | '%', _ -> one st PERCENT i
      | '&', _ -> one st AMP i
      | '|', _ -> one st BAR i
      | '^', _ -> one st CARET i
      | '!', _ -> one st BANG i
      | '~', _ -> one st TILDE i
      | '(', _ -> one st LPAREN i
      | ')', _ -> one st RPAREN i
      | '{', _ -> one st LBRACE i
      | '}', _ -> one st RBRACE i
      | ',', _ -> one st COMMA i
      | ';', _ -> one st SEMI i
      | ':', _ -> one st COLON i
      | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, i))

let next st = scan st st.pos

let create src =
  let st = { src; tok = EOF; off = 0; pos = 0 } in
  next st;
  st

let tokenize src =
  let st = create src in
  let rec go acc =
    let acc = (st.tok, st.off) :: acc in
    if st.tok = EOF then List.rev acc
    else begin
      next st;
      go acc
    end
  in
  go []

let line_col src off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, off - !bol + 1)

let string_of_token = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW_ROUTINE -> "routine"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_RETURN -> "return"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | COLON -> ":"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | BAR -> "|"
  | CARET -> "^"
  | SHL -> "<<"
  | SHR -> ">>"
  | ANDAND -> "&&"
  | BARBAR -> "||"
  | BANG -> "!"
  | TILDE -> "~"
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
