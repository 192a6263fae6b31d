(* The IR substrate: lexer, parser, lowering, builder, validator and the
   two interpreters. *)

let lex_kinds src =
  List.map fst (Ir.Lexer.tokenize src) |> List.map Ir.Lexer.string_of_token

let test_lexer_basic () =
  Alcotest.(check (list string))
    "tokens"
    [ "routine"; "f"; "("; ")"; "{"; "return"; "1"; ";"; "}"; "<eof>" ]
    (lex_kinds "routine f() { return 1; }")

let test_lexer_operators () =
  Alcotest.(check (list string))
    "multi-char operators"
    [ "=="; "!="; "<="; ">="; "<<"; ">>"; "&&"; "||"; "<"; ">"; "="; "!"; "~"; "<eof>" ]
    (lex_kinds "== != <= >= << >> && || < > = ! ~")

let test_lexer_comments () =
  Alcotest.(check (list string))
    "comments skipped" [ "1"; "2"; "<eof>" ]
    (lex_kinds "1 # comment\n // other\n2")

let test_lexer_error () =
  match Ir.Lexer.tokenize "routine f() { @ }" with
  | exception Ir.Lexer.Error (_, off) -> Alcotest.(check int) "offset" 14 off
  | _ -> Alcotest.fail "expected lexer error"

let test_parser_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3); (1 + 2) * 3 respects parens. *)
  let r = Ir.Parser.parse_one "routine f() { return 1 + 2 * 3; }" in
  (match r.Ir.Ast.body with
  | [ Ir.Ast.Sreturn (Ir.Ast.Ebinop (Ir.Types.Add, Ir.Ast.Enum 1, Ir.Ast.Ebinop (Ir.Types.Mul, _, _))) ]
    ->
      ()
  | _ -> Alcotest.fail "wrong precedence for +/*");
  let r = Ir.Parser.parse_one "routine f() { return (1 + 2) * 3; }" in
  match r.Ir.Ast.body with
  | [ Ir.Ast.Sreturn (Ir.Ast.Ebinop (Ir.Types.Mul, Ir.Ast.Ebinop (Ir.Types.Add, _, _), Ir.Ast.Enum 3)) ]
    ->
      ()
  | _ -> Alcotest.fail "parens ignored"

let test_parser_left_assoc () =
  let r = Ir.Parser.parse_one "routine f(a,b,c) { return a - b - c; }" in
  match r.Ir.Ast.body with
  | [ Ir.Ast.Sreturn (Ir.Ast.Ebinop (Ir.Types.Sub, Ir.Ast.Ebinop (Ir.Types.Sub, _, _), _)) ] -> ()
  | _ -> Alcotest.fail "subtraction must be left-associative"

let test_parser_dangling_else () =
  let r = Ir.Parser.parse_one "routine f(a,b) { if (a) if (b) x = 1; else x = 2; return x; }" in
  match r.Ir.Ast.body with
  | [ Ir.Ast.Sif (_, [ Ir.Ast.Sif (_, _, [ Ir.Ast.Sassign ("x", Ir.Ast.Enum 2) ]) ], []); _ ] -> ()
  | _ -> Alcotest.fail "else must bind to the inner if"

let test_parser_errors () =
  let expect_error src =
    match Ir.Parser.parse_one src with
    | exception Ir.Parser.Error _ -> ()
    | _ -> Alcotest.fail ("parse should fail: " ^ src)
  in
  expect_error "routine f( { return 1; }";
  expect_error "routine f() { return 1 }";
  expect_error "routine f() { x = ; }";
  expect_error "routine f() { if a { } }";
  expect_error "routine f() { } routine g() { }  trailing"

let test_parser_program () =
  let rs = Ir.Parser.parse_program "routine f() { return 1; } routine g(x) { return x; }" in
  Alcotest.(check (list string)) "names" [ "f"; "g" ] (List.map (fun r -> r.Ir.Ast.name) rs)

(* Run a mini-C routine through Cir (the pre-SSA interpreter). *)
let run_src src args =
  let cir = Ir.Lower.lower_routine (Ir.Parser.parse_one src) in
  Ir.Cir.run cir args

let check_ret msg expected src args =
  match run_src src args with
  | Ir.Interp.Ret n -> Alcotest.(check int) msg expected n
  | r -> Alcotest.failf "%s: expected ret, got %a" msg Ir.Interp.pp_result r

let test_interp_arith () =
  check_ret "arith" 17 "routine f(a, b) { return a * b + 2; }" [| 3; 5 |];
  check_ret "neg" (-4) "routine f(a) { return -a; }" [| 4 |];
  check_ret "cmp true" 1 "routine f(a) { return a < 10; }" [| 3 |];
  check_ret "cmp false" 0 "routine f(a) { return a < 10; }" [| 30 |];
  check_ret "bitwise" 6 "routine f() { return (12 & 7) ^ 2; }" [||];
  check_ret "shift" 40 "routine f(a) { return a << 2; }" [| 10 |];
  check_ret "lnot" 1 "routine f() { return !0; }" [||];
  check_ret "bnot" (-1) "routine f() { return ~0; }" [||]

let test_interp_short_circuit () =
  (* 1 || (1/0 traps) must not trap; 0 && trap must not trap. *)
  check_ret "or shortcut" 1 "routine f(a) { return 1 || (a / 0); }" [| 5 |];
  check_ret "and shortcut" 0 "routine f(a) { return 0 && (a / 0); }" [| 5 |];
  (match run_src "routine f(a) { return 0 || (a / 0); }" [| 5 |] with
  | Ir.Interp.Trap -> ()
  | r -> Alcotest.failf "expected trap, got %a" Ir.Interp.pp_result r);
  check_ret "result is 0/1" 1 "routine f() { return 7 && 9; }" [||]

let test_interp_control () =
  check_ret "while" 45 "routine f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
    [| 10 |];
  check_ret "break" 5 "routine f() { i = 0; while (1) { if (i >= 5) break; i = i + 1; } return i; }"
    [||];
  check_ret "continue" 31
    "routine f() { s = 0; i = 0; while (i < 10) { i = i + 1; if (i & 1) continue; s = s + i; } \
     return s + (s == 30); }"
    [||];
  check_ret "uninitialized vars read as zero" 0 "routine f() { return nope; }" [||]

let test_interp_trap_and_timeout () =
  (match run_src "routine f(a) { return a / 0; }" [| 1 |] with
  | Ir.Interp.Trap -> ()
  | r -> Alcotest.failf "expected trap, got %a" Ir.Interp.pp_result r);
  (match run_src "routine f() { return 5 % 0; }" [||] with
  | Ir.Interp.Trap -> ()
  | r -> Alcotest.failf "expected rem trap, got %a" Ir.Interp.pp_result r);
  let cir = Ir.Lower.lower_routine (Ir.Parser.parse_one "routine f() { while (1) { x = x + 1; } return 0; }") in
  match Ir.Cir.run ~fuel:1000 cir [||] with
  | Ir.Interp.Timeout -> ()
  | r -> Alcotest.failf "expected timeout, got %a" Ir.Interp.pp_result r

let test_interp_switch () =
  let src =
    "routine f(x) { switch (x) { case 1: { return 10; } case 2: { return 20; } \
     case -3: { return 30; } default: { return 0; } } return 99; }"
  in
  List.iter
    (fun (x, want) -> check_ret (Printf.sprintf "switch %d" x) want src [| x |])
    [ (1, 10); (2, 20); (-3, 30); (7, 0) ];
  (* default-less switch falls through to the join *)
  check_ret "empty default" 5 "routine f(x) { r = 5; switch (x) { case 1: { r = 6; } } return r; }"
    [| 2 |];
  check_ret "case taken" 6 "routine f(x) { r = 5; switch (x) { case 1: { r = 6; } } return r; }"
    [| 1 |]

let test_parser_switch_errors () =
  (match Ir.Parser.parse_one "routine f(x) { switch (x) { case 1: { } case 1: { } } return 0; }" with
  | exception Ir.Parser.Error _ -> ()
  | _ -> Alcotest.fail "duplicate case labels must be rejected");
  match Ir.Parser.parse_one "routine f(x) { switch (x) { case y: { } } return 0; }" with
  | exception Ir.Parser.Error _ -> ()
  | _ -> Alcotest.fail "non-constant case labels must be rejected"

let test_parser_duplicate_params () =
  (match Ir.Parser.parse_one "routine g(a, b, a) { return a; }" with
  | exception Ir.Parser.Error (msg, off) ->
      Alcotest.(check (pair string int))
        "error at the second a" ("duplicate parameter name (found a)", 16) (msg, off)
  | _ -> Alcotest.fail "duplicate parameter names must be rejected");
  let r = Ir.Parser.parse_one "routine g(a, b) { return a; }" in
  Alcotest.(check (list string)) "distinct names parse" [ "a"; "b" ] r.Ir.Ast.params

let test_parser_duplicate_default () =
  let src = "routine f(a) { switch (a) { default: { a = 1; } default: { a = 2; } } return a; }" in
  (match Ir.Parser.parse_one src with
  | exception Ir.Parser.Error (msg, off) ->
      Alcotest.(check (pair string int))
        "error at the second default" ("duplicate default label (found default)", 48) (msg, off)
  | _ -> Alcotest.fail "a second default label must be rejected");
  match Ir.Parser.parse_one "routine f(a) { switch (a) { case 1: { } default: { } } return a; }" with
  | { Ir.Ast.body = [ Ir.Ast.Sswitch (_, [ (1, []) ], []); _ ]; _ } -> ()
  | _ -> Alcotest.fail "one empty default parses"

(* [break] and [continue] need an enclosing while: a switch is no break
   target. The error sits at the keyword. *)
let test_parser_break_outside_loop () =
  List.iter
    (fun (src, want) ->
      match Ir.Parser.parse_program src with
      | exception Ir.Parser.Error (msg, off) -> Alcotest.(check (pair string int)) src want (msg, off)
      | _ -> Alcotest.failf "%s: must be rejected" src)
    [
      ("routine bad(a) { break; return a; }", ("break outside a loop", 17));
      ("routine f(a) { switch (a) { case 1: { continue; } } return a; }", ("continue outside a loop", 38));
      ("routine f(a) { while (a > 0) { a = a - 1; } break; return a; }", ("break outside a loop", 44));
      ("routine f(a) { switch (a) { case 1: { r = a; break; } } return a; }", ("break outside a loop", 45));
    ];
  (* Inside a loop, a switch's break targets the loop. *)
  match
    Ir.Parser.parse_one
      "routine f(a) { while (a > 0) { switch (a) { case 1: { break; } } if (a) { continue; } } \
       return a; }"
  with
  | { Ir.Ast.body = [ Ir.Ast.Swhile (_, [ Ir.Ast.Sswitch (_, [ (1, [ Ir.Ast.Sbreak ]) ], []); _ ]); _ ]; _ } -> ()
  | _ -> Alcotest.fail "break and continue inside a loop parse"

let test_validate_catches_errors () =
  (* A phi with the wrong argument count must be rejected. *)
  let bld = Ir.Builder.create ~name:"bad" ~nparams:0 in
  let b0 = Ir.Builder.add_block bld in
  Alcotest.check_raises "unterminated block"
    (Invalid_argument "Builder: block 0 not terminated") (fun () ->
      ignore (Ir.Builder.finish bld));
  Ir.Builder.ret bld b0 (Ir.Builder.const bld b0 1);
  ignore (Ir.Builder.finish bld)

let test_builder_double_terminator () =
  let bld = Ir.Builder.create ~name:"bad" ~nparams:0 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  ignore (Ir.Builder.jump bld b0 ~dst:b1);
  Alcotest.check_raises "double terminator"
    (Invalid_argument "Builder: block 0 already terminated") (fun () ->
      ignore (Ir.Builder.jump bld b0 ~dst:b1))

let test_builder_final_value () =
  let bld = Ir.Builder.create ~name:"m" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 0 in
  let c = Ir.Builder.const bld b0 5 in
  let s = Ir.Builder.binop bld b0 Ir.Types.Add p c in
  Ir.Builder.ret bld b0 s;
  let f = Ir.Builder.finish bld in
  let m = Ir.Builder.final_value bld in
  (match Ir.Func.instr f (m s) with
  | Ir.Func.Binop (Ir.Types.Add, a, b) ->
      Alcotest.(check (pair int int)) "operands remapped" (m p, m c) (a, b)
  | _ -> Alcotest.fail "wrong instruction at mapped id");
  match Ir.Interp.run f [| 37 |] with
  | Ir.Interp.Ret 42 -> ()
  | r -> Alcotest.failf "expected 42, got %a" Ir.Interp.pp_result r

(* A bad operand is reported with the instruction that reads it. *)
let test_validate_operand_messages () =
  let f = Workload.Corpus.func_of_src "routine f(a) { return a * 3; }" in
  let ni = Ir.Func.num_instrs f in
  let mul = ref (-1) and ret = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ir.Func.Binop _ -> mul := i
      | Ir.Func.Return _ -> ret := i
      | _ -> ())
    f.Ir.Func.instrs;
  let with_operand v =
    let instrs = Array.copy f.Ir.Func.instrs in
    (match instrs.(!mul) with
    | Ir.Func.Binop (op, a, _) -> instrs.(!mul) <- Ir.Func.Binop (op, a, v)
    | _ -> assert false);
    { f with Ir.Func.instrs }
  in
  Alcotest.check_raises "out of range"
    (Failure (Printf.sprintf "instr %d: value %d out of range" !mul (ni + 4)))
    (fun () -> ignore (Ir.Func.validate (with_operand (ni + 4))));
  Alcotest.check_raises "no value"
    (Failure (Printf.sprintf "instr %d: operand %d defines no value" !mul !ret))
    (fun () -> ignore (Ir.Func.validate (with_operand !ret)))

let test_prune_unreachable () =
  (* Statements after return are unreachable and must be pruned. *)
  let cir = Ir.Lower.lower_routine (Ir.Parser.parse_one
    "routine f() { return 1; x = 2; return x; }") in
  let g = Analysis.Graph.of_cir cir in
  let reach = Analysis.Graph.reachable g in
  Alcotest.(check bool) "all blocks reachable after prune" true (Array.for_all Fun.id reach)

(* One function holding every instruction form, printed form by form. No
   golden holds a unary instruction, so this pins the printer's text. *)
let all_forms () =
  let module B = Ir.Builder in
  let bld = B.create ~name:"forms" ~nparams:1 in
  let b0 = B.add_block bld in
  let b1 = B.add_block bld in
  let b2 = B.add_block bld in
  let b3 = B.add_block bld in
  let b4 = B.add_block bld in
  let p = B.param bld b0 0 in
  let c = B.const bld b0 (-7) in
  let neg = B.unop bld b0 Ir.Types.Neg p in
  let lnot = B.unop bld b0 Ir.Types.Lnot c in
  let bnot = B.unop bld b0 Ir.Types.Bnot neg in
  let add = B.binop bld b0 Ir.Types.Add p c in
  let lt = B.cmp bld b0 Ir.Types.Lt add bnot in
  let call = B.opaque ~tag:3 bld b0 [ p; lnot ] in
  ignore (B.branch bld b0 lt ~ift:b1 ~iff:b3);
  let _, dflt = B.switch bld b1 call ~cases:[ (1, b2); (-2, b3) ] ~default:b4 in
  let j = B.jump bld b2 ~dst:b4 in
  B.ret bld b3 add;
  let phi = B.phi bld b4 in
  B.set_phi_arg bld ~phi ~edge:dflt bnot;
  B.set_phi_arg bld ~phi ~edge:j call;
  B.ret bld b4 phi;
  B.finish bld

let test_printer_forms () =
  let f = all_forms () in
  let lines =
    [
      "v0 = param 0";
      "v1 = const -7";
      "v2 = -v0";
      "v3 = !v1";
      "v4 = ~v2";
      "v5 = v0 + v1";
      "v6 = v5 < v4";
      "v7 = opaque#3(v0, v3)";
      "branch v6, b1, b3";
      "switch v7 [1: b2; -2: b3] default b4";
      "jump b4";
      "return v5";
      "v12 = phi(b1: v4, b2: v7)";
      "return v12";
    ]
  in
  Alcotest.(check (list string))
    "pp_instr lines" lines
    (List.init (Ir.Func.num_instrs f) (Fmt.str "%a" (Ir.Printer.pp_instr f)));
  let text =
    "function forms(1 params), 5 blocks, 14 instrs\n\
     b0:\n\
    \  v0 = param 0\n\
    \  v1 = const -7\n\
    \  v2 = -v0\n\
    \  v3 = !v1\n\
    \  v4 = ~v2\n\
    \  v5 = v0 + v1\n\
    \  v6 = v5 < v4\n\
    \  v7 = opaque#3(v0, v3)\n\
    \  branch v6, b1, b3\n\
     b1:  ; preds: b0\n\
    \  switch v7 [1: b2; -2: b3] default b4\n\
     b2:  ; preds: b1\n\
    \  jump b4\n\
     b3:  ; preds: b0 b1\n\
    \  return v5\n\
     b4:  ; preds: b1 b2\n\
    \  v12 = phi(b1: v4, b2: v7)\n\
    \  return v12\n"
  in
  Alcotest.(check string) "to_string" text (Ir.Printer.to_string f);
  Alcotest.(check string) "pp agrees with to_string" text (Fmt.str "%a" Ir.Printer.pp f);
  (* Inside a caller's box, each line break indents like a Format break. *)
  Alcotest.(check string)
    "pp_block inside a box" "<b3:  ; preds: b0 b1\n       return v5\n     >"
    (Fmt.str "<@[<hov 4>%a@]>" (Ir.Printer.pp_block f) 3);
  Alcotest.(check string)
    "pp inside a box"
    ("<" ^ String.concat "\n   " (String.split_on_char '\n' text) ^ ">")
    (Fmt.str "<@[<v 2>%a@]>" Ir.Printer.pp f)

(* Property: SSA-level and register-level interpreters agree on every
   generated program. *)
let prop_cir_ssa_agree =
  QCheck.Test.make ~name:"Cir.run agrees with Interp.run after SSA construction" ~count:60
    QCheck.(pair (int_bound 100000) (int_bound 1000))
    (fun (seed, argseed) ->
      let f = Workload.Generator.func ~seed ~name:"p" () in
      let cir = Ir.Lower.lower_routine (Workload.Generator.routine ~seed ~name:"p" ()) in
      let rng = Util.Prng.create argseed in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-20) 20) in
        if not (Ir.Interp.equal_result (Ir.Cir.run cir args) (Ir.Interp.run f args)) then
          ok := false
      done;
      !ok)

(* Property: the AST printer emits re-parsable mini-C. *)
let prop_ast_roundtrip =
  QCheck.Test.make ~name:"pretty-printed routines re-parse and agree" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Workload.Generator.routine ~seed ~name:"rt" () in
      let printed = Fmt.str "%a" Ir.Ast.pp_routine r in
      let r2 = Ir.Parser.parse_one printed in
      let c1 = Ir.Lower.lower_routine r and c2 = Ir.Lower.lower_routine r2 in
      let rng = Util.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-20) 20) in
        if not (Ir.Interp.equal_result (Ir.Cir.run c1 args) (Ir.Cir.run c2 args)) then ok := false
      done;
      !ok)

(* Integer literals are accumulated by the lexer: [max_int] is the largest
   one, and a longer run is a lex error at the literal, not a crash. *)
let test_lexer_int_range () =
  Alcotest.(check (list string))
    "max_int lexes" [ "return"; string_of_int max_int; ";"; "<eof>" ]
    (lex_kinds "return 4611686018427387903;");
  match Ir.Lexer.tokenize "return 4611686018427387904;" with
  | exception Ir.Lexer.Error (msg, off) ->
      Alcotest.(check (pair string int))
        "max_int + 1" ("integer literal out of range", 7) (msg, off)
  | _ -> Alcotest.fail "max_int + 1 must not lex"

let frontend_error src =
  match Ir.Parser.parse_program src with
  | _ -> Alcotest.fail "expected a frontend error"
  | exception Ir.Parser.Error (msg, off) -> ("parse", msg, off)
  | exception Ir.Lexer.Error (msg, off) -> ("lex", msg, off)

(* The parser pulls tokens on demand, yet a lex error anywhere in the file
   still wins over an earlier parse error, as it did when the whole file was
   tokenized first; a file whose only fault is a parse error keeps its
   message and offset. *)
let test_frontend_error_precedence () =
  let check = Alcotest.(check (triple string string int)) in
  check "a later lex error wins"
    ("lex", "unexpected character '@'", 50)
    (frontend_error "routine f() { return 1 + ; }\nroutine g() { return @; }");
  check "a parse error alone"
    ("parse", "expected expression (found ;)", 25)
    (frontend_error "routine f() { return 1 + ; }\nroutine g() { return 2; }");
  check "the token after a switch"
    ("parse", "duplicate case label (found return)", 54)
    (frontend_error "routine f(x) { switch (x) { case 1: { } case 1: { } } return 0; }")

(* Property: mutated sources (a byte flipped, inserted or deleted, the text
   truncated, or a 20-digit literal inserted) either parse or raise one of
   the frontend's own errors — never anything else. *)
let prop_frontend_errors_only =
  let sources = lazy (Array.of_list (List.map snd (Helpers.shipped_sources ()))) in
  QCheck.Test.make ~name:"mutated sources raise only frontend errors" ~count:400
    QCheck.(quad (int_bound 1000) (int_bound 4) (int_bound 100_000) (int_bound 255))
    (fun (which, kind, at, byte) ->
      let srcs = Lazy.force sources in
      let src = srcs.(which mod Array.length srcs) in
      let n = String.length src in
      let at = at mod (n + 1) in
      let cut i = String.sub src 0 i and rest i = String.sub src i (n - i) in
      let mutated =
        match kind with
        | 0 when at < n -> cut at ^ String.make 1 (Char.chr byte) ^ rest (at + 1)
        | 1 -> cut at ^ String.make 1 (Char.chr byte) ^ rest at
        | 2 when at < n -> cut at ^ rest (at + 1)
        | 3 -> cut at
        | _ ->
            let rng = Util.Prng.create byte in
            let digits = String.init 20 (fun k -> Char.chr (48 + Util.Prng.range rng (if k = 0 then 1 else 0) 9)) in
            cut at ^ " " ^ digits ^ " " ^ rest at
      in
      match Ir.Parser.parse_program mutated with
      | _ -> true
      | exception (Ir.Lexer.Error _ | Ir.Parser.Error _) -> true)

let suite =
  [
    Alcotest.test_case "lexer: basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: error offset" `Quick test_lexer_error;
    Alcotest.test_case "parser: precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser: left associativity" `Quick test_parser_left_assoc;
    Alcotest.test_case "parser: dangling else" `Quick test_parser_dangling_else;
    Alcotest.test_case "parser: rejects malformed input" `Quick test_parser_errors;
    Alcotest.test_case "parser: multi-routine programs" `Quick test_parser_program;
    Alcotest.test_case "interp: arithmetic and comparisons" `Quick test_interp_arith;
    Alcotest.test_case "interp: short-circuit operators" `Quick test_interp_short_circuit;
    Alcotest.test_case "interp: loops, break, continue" `Quick test_interp_control;
    Alcotest.test_case "interp: traps and timeouts" `Quick test_interp_trap_and_timeout;
    Alcotest.test_case "interp: switch" `Quick test_interp_switch;
    Alcotest.test_case "parser: switch errors" `Quick test_parser_switch_errors;
    Alcotest.test_case "builder: missing terminator rejected" `Quick test_validate_catches_errors;
    Alcotest.test_case "builder: double terminator rejected" `Quick test_builder_double_terminator;
    Alcotest.test_case "builder: final_value remapping" `Quick test_builder_final_value;
    Alcotest.test_case "lowering: prunes unreachable blocks" `Quick test_prune_unreachable;
    QCheck_alcotest.to_alcotest prop_cir_ssa_agree;
    QCheck_alcotest.to_alcotest prop_ast_roundtrip;
    Alcotest.test_case "printer: every instruction form" `Quick test_printer_forms;
    Alcotest.test_case "lexer: integer literal range" `Quick test_lexer_int_range;
    Alcotest.test_case "frontend: lex errors win over parse errors" `Quick
      test_frontend_error_precedence;
    QCheck_alcotest.to_alcotest prop_frontend_errors_only;
    Alcotest.test_case "validate: operand messages name the instruction" `Quick
      test_validate_operand_messages;
    Alcotest.test_case "parser: duplicate parameter names" `Quick test_parser_duplicate_params;
    Alcotest.test_case "parser: duplicate default labels" `Quick test_parser_duplicate_default;
    Alcotest.test_case "parser: break and continue outside a loop" `Quick
      test_parser_break_outside_loop;
  ]
