(* The code-motion placement analysis and its independent legality checker:
   range well-formedness on generated programs, identity certification over
   the whole corpus, cross-validation of proposed moves against the checker,
   speculation-safety pins, seeded illegal-placement mutants (each must be
   rejected with its pinned check id), and the opportunity lints. *)

module Placement = Schedule.Placement
module Speculate = Schedule.Speculate

let func_of_src = Workload.Corpus.func_of_src
let safety_str s = Fmt.str "%a" Speculate.pp s

let find_instr f p =
  let found = ref (-1) in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    if !found < 0 && p (Ir.Func.instr f i) then found := i
  done;
  if !found < 0 then Alcotest.fail "expected instruction not found";
  !found

let checks errs = List.sort_uniq compare (List.map (fun d -> d.Check.Diagnostic.check) errs)

(* Every diagnostic the checker emits for [placement]; must be exactly the
   given check ids, and all Error severity. *)
let expect_checks msg f placement expected =
  let errs = Check.Schedule.run ~placement f in
  List.iter
    (fun d ->
      if d.Check.Diagnostic.severity <> Check.Diagnostic.Error then
        Alcotest.failf "%s: non-error diagnostic %s" msg (Check.Diagnostic.to_string d))
    errs;
  Alcotest.(check (list string)) msg expected (checks errs)

(* ------------------------------------------------------------------ *)
(* Range well-formedness                                               *)

(* The legal range is a dominator-tree path through the current block:
   early dominates the block, the block dominates late, and best sits on
   the path at no greater loop depth. Pinned values collapse to the
   current block. *)
let prop_ranges_wellformed =
  QCheck.Test.make ~name:"placement ranges are dominator paths through the def" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"sched" () in
      let pl = Placement.compute f in
      let dom = Placement.dom pl in
      let ok = ref true in
      for v = 0 to Ir.Func.num_instrs f - 1 do
        let b = Ir.Func.block_of_instr f v in
        if Ir.Func.defines_value (Ir.Func.instr f v) && Analysis.Dom.reachable dom b then begin
          let e = pl.Placement.early.(v)
          and l = pl.Placement.late.(v)
          and bst = pl.Placement.best.(v) in
          if not (Analysis.Dom.dominates dom e b) then ok := false;
          if not (Analysis.Dom.dominates dom b l) then ok := false;
          if not (Analysis.Dom.dominates dom e bst) then ok := false;
          if not (Analysis.Dom.dominates dom bst l) then ok := false;
          if
            Analysis.Loops.depth_at (Placement.forest pl) bst
            > Analysis.Loops.depth_at (Placement.forest pl) b
          then ok := false;
          if Speculate.is_pinned pl.Placement.safety.(v) && (e <> b || l <> b || bst <> b) then
            ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Identity certification                                              *)

(* The current placement of every routine in the ten-benchmark suite and
   the hand-written corpus is legal — the checker's baseline guarantee. *)
let test_identity_certifies () =
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          match Check.Schedule.run f with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s: identity placement rejected: %s" b.Workload.Suite.name
                (Check.Diagnostic.to_string (List.hd errs)))
        funcs)
    (Workload.Suite.all ~scale:0.1 ());
  List.iter
    (fun (name, src) ->
      match Check.Schedule.run (func_of_src src) with
      | [] -> ()
      | errs ->
          Alcotest.failf "corpus %s: identity placement rejected: %s" name
            (Check.Diagnostic.to_string (List.hd errs)))
    Workload.Corpus.all_named

(* Moves the analysis proposes are accepted by the independent checker.
   Single-value moves are only self-contained when every operand's current
   block still dominates the target (a whole-schedule move could hoist the
   operands too), so we restrict to those — and assert the corpus actually
   exercises some. *)
let test_best_moves_certify () =
  let moved = ref 0 in
  let try_func f =
    let pl = Placement.compute f in
    let dom = Placement.dom pl in
    for v = 0 to Ir.Func.num_instrs f - 1 do
      let b = Ir.Func.block_of_instr f v in
      let bst = pl.Placement.best.(v) in
      if Placement.hoistable pl v || Placement.sinkable pl v then begin
        let operands_ok = ref true in
        Ir.Func.iter_operands
          (fun o ->
            if not (Analysis.Dom.dominates dom (Ir.Func.block_of_instr f o) bst) then
              operands_ok := false)
          (Ir.Func.instr f v);
        if !operands_ok then begin
          let placement = Check.Schedule.identity f in
          placement.(v) <- bst;
          match Check.Schedule.run ~placement f with
          | [] -> incr moved
          | errs ->
              Alcotest.failf "proposed move of v%d b%d->b%d rejected: %s" v b bst
                (Check.Diagnostic.to_string (List.hd errs))
        end
      end
    done
  in
  List.iter (fun (_, src) -> try_func (func_of_src src)) Workload.Corpus.all_named;
  for seed = 1 to 10 do
    try_func (Workload.Generator.func ~seed ~name:"mv" ())
  done;
  if !moved = 0 then Alcotest.fail "no proposed move was exercised"

(* ------------------------------------------------------------------ *)
(* Speculation safety                                                  *)

let test_speculation_classes () =
  (* A division guarded by its only non-trapping path is pinned behind
     that predicate. *)
  let f = func_of_src "routine f(a, b) { if (b != 0) { return a / b; } return 0; }" in
  let pl = Placement.compute f in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  (match pl.Placement.safety.(d) with
  | Speculate.Pinned (Speculate.May_trap { predicate = Some p }) ->
      Alcotest.(check int) "guarded by the branching entry" 0 p
  | s -> Alcotest.failf "guarded div: expected pinned may-trap, got %s" (safety_str s));
  (* A constant divisor is proven non-trapping from the interval facts. *)
  let f = func_of_src "routine f(a) { return a / 7; }" in
  let pl = Placement.compute f in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  (match pl.Placement.safety.(d) with
  | Speculate.Proven _ -> ()
  | s -> Alcotest.failf "const divisor: expected proven, got %s" (safety_str s));
  (* Trap-free operator classes float freely; opaque calls never do. *)
  let f = func_of_src "routine f(a) { if (a > 0) { return g(a) + a * 3; } return 0; }" in
  let pl = Placement.compute f in
  let m = find_instr f (function Ir.Func.Binop (Ir.Types.Mul, _, _) -> true | _ -> false) in
  let c = find_instr f (function Ir.Func.Opaque _ -> true | _ -> false) in
  (match pl.Placement.safety.(m) with
  | Speculate.Safe -> ()
  | s -> Alcotest.failf "mul: expected safe, got %s" (safety_str s));
  match pl.Placement.safety.(c) with
  | Speculate.Pinned Speculate.Call -> ()
  | s -> Alcotest.failf "call: expected pinned, got %s" (safety_str s)

(* A division guarded by a conjunction — [d != 0 && d != -1] — that no
   single interval fact can express. The dominating-fact closure clears it
   at the block inside both guards, upgrading the pin to Proven with early
   clamped there: the loop-invariant division becomes hoistable out of the
   loop, and the checker certifies the hoisted placement (it re-derives the
   same facts independently). Hoisting above the guards must stay rejected. *)
let test_fact_cleared_division () =
  let f =
    func_of_src
      "routine g(n, d) {\n\
      \  r = 0;\n\
      \  if (d != 0) { if (d != -1) {\n\
      \    i = 0;\n\
      \    while (i < n) { r = r + n / d; i = i + 1; }\n\
      \  } }\n\
      \  return r; }"
  in
  let pl = Placement.compute f in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  (match pl.Placement.safety.(d) with
  | Speculate.Proven _ -> ()
  | s -> Alcotest.failf "conjunction-guarded div: expected proven, got %s" (safety_str s));
  Alcotest.(check bool) "division is hoistable out of the loop" true
    (Placement.hoistable pl d);
  let b = Ir.Func.block_of_instr f d in
  let bst = pl.Placement.best.(d) in
  Alcotest.(check bool) "best leaves the loop" true
    (Analysis.Loops.depth_at (Placement.forest pl) bst
    < Analysis.Loops.depth_at (Placement.forest pl) b);
  let placement = Check.Schedule.identity f in
  placement.(d) <- bst;
  (match Check.Schedule.run ~placement f with
  | [] -> ()
  | errs ->
      Alcotest.failf "fact-cleared hoist b%d->b%d rejected: %s" b bst
        (Check.Diagnostic.to_string (List.hd errs)));
  (* above the guards the facts evaporate: entry must still be illegal *)
  let placement = Check.Schedule.identity f in
  placement.(d) <- Ir.Func.entry;
  expect_checks "hoist above the guards still rejected" f placement [ "sched-speculation" ]

(* ------------------------------------------------------------------ *)
(* Seeded illegal-placement mutants                                    *)

let test_mutant_dominance () =
  let f = func_of_src "routine f(a) { x = a + 1; if (a > 0) { return x; } return 0; }" in
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) in
  (* The block returning the constant is the arm that does not use x. *)
  let other_arm =
    Ir.Func.block_of_instr f
      (find_instr f (function
        | Ir.Func.Return v -> ( match Ir.Func.instr f v with Ir.Func.Const 0 -> true | _ -> false)
        | _ -> false))
  in
  let placement = Check.Schedule.identity f in
  placement.(x) <- other_arm;
  expect_checks "def moved off the path to its use" f placement [ "sched-dominance" ]

let test_mutant_speculation () =
  let f = func_of_src "routine f(a, b) { if (b != 0) { return a / b; } return 0; }" in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  let placement = Check.Schedule.identity f in
  placement.(d) <- Ir.Func.entry;
  expect_checks "faulting div hoisted past its guard" f placement [ "sched-speculation" ]

let test_mutant_opaque () =
  let f = func_of_src "routine f(a) { if (a > 0) { return g(a); } return 0; }" in
  let c = find_instr f (function Ir.Func.Opaque _ -> true | _ -> false) in
  let placement = Check.Schedule.identity f in
  placement.(c) <- Ir.Func.entry;
  expect_checks "opaque call moved" f placement [ "sched-speculation" ]

let test_mutant_loop_depth () =
  let f =
    func_of_src
      "routine f(a, n) { x = a * 3; i = 0; s = 0; while (i < n) { s = s + x; i = i + 1; } \
       return s; }"
  in
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Mul, _, _) -> true | _ -> false) in
  let fr = Analysis.Loops.forest (Analysis.Graph.of_func f) in
  Alcotest.(check int) "one loop" 1 (Array.length fr.Analysis.Loops.loops);
  let header = fr.Analysis.Loops.loops.(0).Analysis.Loops.header in
  let placement = Check.Schedule.identity f in
  placement.(x) <- header;
  expect_checks "invariant pushed into the loop" f placement [ "sched-loop-depth" ]

let test_mutant_phi () =
  let f = func_of_src "routine f(n) { i = 0; while (i < n) { i = i + 1; } return i; }" in
  let p = find_instr f (function Ir.Func.Phi _ -> true | _ -> false) in
  let placement = Check.Schedule.identity f in
  placement.(p) <- Ir.Func.entry;
  expect_checks "phi moved off its join" f placement [ "sched-phi" ]

let test_mutant_placement_vector () =
  let f = func_of_src "routine f(a) { return a + 1; }" in
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) in
  let placement = Check.Schedule.identity f in
  placement.(x) <- 99;
  expect_checks "nonexistent target block" f placement [ "sched-placement" ];
  (* A malformed vector is a single placement error, not a crash. *)
  expect_checks "wrong-length vector" f [| 0 |] [ "sched-placement" ]

(* ------------------------------------------------------------------ *)
(* Lints and telemetry                                                 *)

let test_lints () =
  (* The corpus LICM probe: the loop-invariant add is reported, as Info. *)
  let f = func_of_src Workload.Corpus.loop_invariant_src in
  let lints = Placement.lints (Placement.compute f) in
  let invariant = List.filter (fun d -> d.Check.Diagnostic.check = "lint-loop-invariant") lints in
  Alcotest.(check bool) "loop-invariant lint fires" true (invariant <> []);
  List.iter
    (fun d ->
      if d.Check.Diagnostic.severity <> Check.Diagnostic.Info then
        Alcotest.failf "lint is not Info: %s" (Check.Diagnostic.to_string d))
    lints;
  (* A value used on only one arm of a branch can sink to it. *)
  let f = func_of_src "routine f(a) { x = a * 3; if (a > 0) { return x; } return 0; }" in
  let lints = Placement.lints (Placement.compute f) in
  Alcotest.(check bool) "sinkable lint fires" true
    (List.exists (fun d -> d.Check.Diagnostic.check = "lint-sinkable") lints)

let test_obs_counters () =
  let o = Obs.create () in
  let f = func_of_src Workload.Corpus.loop_invariant_src in
  let pl = Placement.compute ~obs:o f in
  let s = Placement.stats pl in
  Alcotest.(check int) "values counter matches stats" s.Placement.values
    (Obs.Metrics.counter o.Obs.metrics "schedule.values");
  Alcotest.(check int) "hoistable counter matches stats" s.Placement.hoistable
    (Obs.Metrics.counter o.Obs.metrics "schedule.hoistable");
  Alcotest.(check bool) "something was hoistable" true (s.Placement.hoistable > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ranges_wellformed;
    Alcotest.test_case "identity placement certifies everywhere" `Quick test_identity_certifies;
    Alcotest.test_case "proposed moves pass the checker" `Quick test_best_moves_certify;
    Alcotest.test_case "speculation classes" `Quick test_speculation_classes;
    Alcotest.test_case "fact-cleared division gains a range" `Quick
      test_fact_cleared_division;
    Alcotest.test_case "mutant: non-dominating move" `Quick test_mutant_dominance;
    Alcotest.test_case "mutant: div hoisted past guard" `Quick test_mutant_speculation;
    Alcotest.test_case "mutant: opaque call moved" `Quick test_mutant_opaque;
    Alcotest.test_case "mutant: move into deeper loop" `Quick test_mutant_loop_depth;
    Alcotest.test_case "mutant: phi moved" `Quick test_mutant_phi;
    Alcotest.test_case "mutant: malformed placement" `Quick test_mutant_placement_vector;
    Alcotest.test_case "opportunity lints" `Quick test_lints;
    Alcotest.test_case "schedule telemetry counters" `Quick test_obs_counters;
  ]
