(* Recursive-descent parser for mini-C, with C-like operator precedence. *)

exception Error of string * int

(* The parser reads the lexer's cursor directly: no token list is built. *)
let peek (st : Lexer.t) = st.tok
let peek_offset (st : Lexer.t) = st.off
let advance = Lexer.next

let err st msg =
  raise
    (Error
       ( Printf.sprintf "%s (found %s)" msg (Lexer.string_of_token (peek st)),
         peek_offset st ))

let expect st tok msg =
  if peek st = tok then advance st else err st msg

let expect_ident st msg =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | _ -> err st msg

(* Binary operator table: token -> (precedence, ast builder). Higher binds
   tighter; all binary operators are left-associative. *)
let binop_info (tok : Lexer.token) : (int * (Ast.expr -> Ast.expr -> Ast.expr)) option =
  let bin op a b = Ast.Ebinop (op, a, b) in
  let cmp op a b = Ast.Ecmp (op, a, b) in
  match tok with
  | BARBAR -> Some (1, fun a b -> Ast.Eor (a, b))
  | ANDAND -> Some (2, fun a b -> Ast.Eand (a, b))
  | BAR -> Some (3, bin Types.Or)
  | CARET -> Some (4, bin Types.Xor)
  | AMP -> Some (5, bin Types.And)
  | EQ -> Some (6, cmp Types.Eq)
  | NE -> Some (6, cmp Types.Ne)
  | LT -> Some (7, cmp Types.Lt)
  | LE -> Some (7, cmp Types.Le)
  | GT -> Some (7, cmp Types.Gt)
  | GE -> Some (7, cmp Types.Ge)
  | SHL -> Some (8, bin Types.Shl)
  | SHR -> Some (8, bin Types.Shr)
  | PLUS -> Some (9, bin Types.Add)
  | MINUS -> Some (9, bin Types.Sub)
  | STAR -> Some (10, bin Types.Mul)
  | SLASH -> Some (10, bin Types.Div)
  | PERCENT -> Some (10, bin Types.Rem)
  | _ -> None

let rec parse_expr st = parse_binary st 0

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_info (peek st) with
    | Some (prec, build) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        loop (build lhs rhs)
    | Some _ | None -> lhs
  in
  loop lhs

and parse_unary st =
  match peek st with
  | MINUS ->
      advance st;
      Ast.Eunop (Types.Neg, parse_unary st)
  | BANG ->
      advance st;
      Ast.Eunop (Types.Lnot, parse_unary st)
  | TILDE ->
      advance st;
      Ast.Eunop (Types.Bnot, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | INT n ->
      advance st;
      Ast.Enum n
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st RPAREN "expected ')'";
      e
  | IDENT name -> (
      advance st;
      match peek st with
      | LPAREN ->
          advance st;
          let args = parse_args st in
          Ast.Ecall (name, args)
      | _ -> Ast.Evar name)
  | _ -> err st "expected expression"

and parse_args st =
  if peek st = RPAREN then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let e = parse_expr st in
      match peek st with
      | COMMA ->
          advance st;
          loop (e :: acc)
      | RPAREN ->
          advance st;
          List.rev (e :: acc)
      | _ -> err st "expected ',' or ')'"
    in
    loop []

(* [in_loop]: a [while] encloses the statement. A switch is no break
   target, so [break] and [continue] need a loop, and an error names the
   keyword's position. *)
let rec parse_stmt ~in_loop st : Ast.stmt =
  match peek st with
  | KW_IF ->
      advance st;
      expect st LPAREN "expected '(' after if";
      let cond = parse_expr st in
      expect st RPAREN "expected ')'";
      let then_ = parse_block_or_stmt ~in_loop st in
      let else_ =
        if peek st = KW_ELSE then begin
          advance st;
          parse_block_or_stmt ~in_loop st
        end
        else []
      in
      Ast.Sif (cond, then_, else_)
  | KW_SWITCH ->
      advance st;
      expect st LPAREN "expected '(' after switch";
      let e = parse_expr st in
      expect st RPAREN "expected ')'";
      expect st LBRACE "expected '{'";
      let cases = ref [] in
      let default = ref None in
      let parse_case_body () =
        expect st LBRACE "expected '{' after case label";
        let body = parse_stmts ~in_loop st in
        expect st RBRACE "expected '}'";
        body
      in
      let rec loop () =
        match peek st with
        | KW_CASE ->
            advance st;
            let k =
              match peek st with
              | INT n ->
                  advance st;
                  n
              | MINUS ->
                  advance st;
                  (match peek st with
                  | INT n ->
                      advance st;
                      -n
                  | _ -> err st "expected integer case label")
              | _ -> err st "expected integer case label"
            in
            expect st COLON "expected ':'";
            cases := (k, parse_case_body ()) :: !cases;
            loop ()
        | KW_DEFAULT ->
            if Option.is_some !default then err st "duplicate default label";
            advance st;
            expect st COLON "expected ':'";
            default := Some (parse_case_body ());
            loop ()
        | RBRACE -> advance st
        | _ -> err st "expected 'case', 'default' or '}'"
      in
      loop ();
      let cases = List.rev !cases in
      (* reject duplicate case labels *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, _) ->
          if Hashtbl.mem seen k then err st "duplicate case label";
          Hashtbl.replace seen k ())
        cases;
      Ast.Sswitch (e, cases, Option.value !default ~default:[])
  | KW_WHILE ->
      advance st;
      expect st LPAREN "expected '(' after while";
      let cond = parse_expr st in
      expect st RPAREN "expected ')'";
      let body = parse_block_or_stmt ~in_loop:true st in
      Ast.Swhile (cond, body)
  | (KW_BREAK | KW_CONTINUE) as kw ->
      if not in_loop then
        raise (Error (Lexer.string_of_token kw ^ " outside a loop", peek_offset st));
      advance st;
      expect st SEMI "expected ';'";
      if kw = KW_BREAK then Ast.Sbreak else Ast.Scontinue
  | KW_RETURN ->
      advance st;
      let e = parse_expr st in
      expect st SEMI "expected ';'";
      Ast.Sreturn e
  | IDENT name ->
      advance st;
      expect st ASSIGN "expected '=' in assignment";
      let e = parse_expr st in
      expect st SEMI "expected ';'";
      Ast.Sassign (name, e)
  | _ -> err st "expected statement"

and parse_block_or_stmt ~in_loop st : Ast.stmt list =
  if peek st = LBRACE then begin
    advance st;
    let stmts = parse_stmts ~in_loop st in
    expect st RBRACE "expected '}'";
    stmts
  end
  else [ parse_stmt ~in_loop st ]

and parse_stmts ~in_loop st =
  let rec loop acc =
    match peek st with
    | RBRACE | EOF -> List.rev acc
    | _ -> loop (parse_stmt ~in_loop st :: acc)
  in
  loop []

let parse_routine st : Ast.routine =
  expect st KW_ROUTINE "expected 'routine'";
  let name = expect_ident st "expected routine name" in
  expect st LPAREN "expected '('";
  let params =
    if peek st = RPAREN then begin
      advance st;
      []
    end
    else
      (* Reject a repeated name at its second occurrence. *)
      let seen = Hashtbl.create 8 in
      let rec loop acc =
        (match peek st with
        | Lexer.IDENT p when Hashtbl.mem seen p -> err st "duplicate parameter name"
        | _ -> ());
        let p = expect_ident st "expected parameter name" in
        Hashtbl.replace seen p ();
        match peek st with
        | COMMA ->
            advance st;
            loop (p :: acc)
        | RPAREN ->
            advance st;
            List.rev (p :: acc)
        | _ -> err st "expected ',' or ')'"
      in
      loop []
  in
  expect st LBRACE "expected '{'";
  let body = parse_stmts ~in_loop:false st in
  expect st RBRACE "expected '}'";
  { Ast.name; params; body }

(* Parses a whole source file: one or more routines. A lex error anywhere
   in the file wins over a parse error, the order a separate tokenizing
   pass would give: on a parse error the cursor is drained to [EOF], which
   raises the first lex error past it, if any. *)
let parse_program src : Ast.routine list =
  let st = Lexer.create src in
  let rec loop acc =
    if peek st = EOF then List.rev acc else loop (parse_routine st :: acc)
  in
  try loop []
  with Error _ as e ->
    while peek st <> EOF do
      advance st
    done;
    raise e

let parse_one src =
  match parse_program src with
  | [ r ] -> r
  | rs -> raise (Error (Printf.sprintf "expected exactly one routine, got %d" (List.length rs), 0))
