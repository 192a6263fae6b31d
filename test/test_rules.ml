(* The declarative rewrite-rule subsystem (lib/rules): the shipped catalog
   must come through the soundness verifier clean, deliberately unsound
   mutant rules must be rejected with a witness, the compiled matcher must
   agree behaviorally with direct operator semantics (what the old
   hand-coded fold ladders implemented), the engine must not lose
   congruence strength on the ten-benchmark suite, and rule firings must
   surface as observability counters. *)

module P = Rules.Pattern
module V = Rules.Verify
module H = Pgvn.Hexpr

(* Deterministic: the same seed the --rules=verify CLI gate uses. *)
let fixed_seed = 0x5eed

(* ---------------- catalog soundness ---------------- *)

let test_catalog_verifies () =
  let report = V.verify_all ~seed:fixed_seed Rules.catalog in
  Alcotest.(check bool) "catalog verifies" true (V.ok report);
  Alcotest.(check bool) "catalog is non-trivial" true (List.length Rules.catalog >= 30);
  List.iter
    (fun (s : V.status) ->
      Alcotest.(check bool)
        (s.V.rule.P.name ^ ": exhaustively checked")
        true
        (s.V.exhaustive_checked > 0);
      Alcotest.(check bool) (s.V.rule.P.name ^ ": fuzzed") true (s.V.fuzz_checked > 0))
    report.V.statuses

(* Stability of the verifier itself: a second run with the same seed must
   reproduce the same statuses (the CLI gate depends on determinism). *)
let test_verifier_deterministic () =
  let counts r =
    List.map (fun (s : V.status) -> (s.V.exhaustive_checked, s.V.fuzz_checked)) r.V.statuses
  in
  let a = V.verify_all ~seed:fixed_seed Rules.catalog in
  let b = V.verify_all ~seed:fixed_seed Rules.catalog in
  Alcotest.(check (list (pair int int))) "same check counts" (counts a) (counts b)

(* ---------------- unsound mutants are rejected ---------------- *)

let mk name lhs rhs = { P.name; lhs; rhs; guard = None; guard_doc = ""; commutes = false }

let rejected r = not (V.rule_ok (V.verify_rule ~seed:fixed_seed r))

let test_mutants_rejected () =
  (* x / x -> 1 violates fault agreement: at x = 0 the LHS traps and the
     RHS yields 1 (traps are observable through the interpreter). *)
  Alcotest.(check bool)
    "div-self rejected" true
    (rejected (mk "mutant-div-self" (P.Pbinop (Ir.Types.Div, P.Pvar 0, P.Pvar 0)) (P.Rconst 1)));
  (* !!x -> x confuses double logical negation with identity: !!5 = 1. *)
  Alcotest.(check bool)
    "lnot-lnot rejected" true
    (rejected
       (mk "mutant-lnot-lnot"
          (P.Punop (Ir.Types.Lnot, P.Punop (Ir.Types.Lnot, P.Pvar 0)))
          (P.Rvar 0)));
  (* x * 2 -> x shl 1 is unsound here: shift amounts mask with [land 62],
     so bit 0 of the amount is dropped and [x shl 1 = x]. *)
  Alcotest.(check bool)
    "mul2-to-shl rejected" true
    (rejected
       (mk "mutant-mul2-shl"
          (P.Pbinop (Ir.Types.Mul, P.Pvar 0, P.Pconst 2))
          (P.Rbinop (Ir.Types.Shl, P.Rvar 0, P.Rconst 1))));
  (* x rem -1 -> 0 violates fault agreement at x = min_int (the quotient
     min_int / -1 overflows, and rem faults with it). *)
  Alcotest.(check bool)
    "rem-neg1 rejected" true
    (rejected (mk "mutant-rem-neg1" (P.Pbinop (Ir.Types.Rem, P.Pvar 0, P.Pconst (-1))) (P.Rconst 0)))

(* ---------------- catalog meta-lints ---------------- *)

let has_fatal_for name lints =
  List.exists
    (fun (l : V.lint) -> l.V.level = V.Fatal && List.mem name l.V.rules)
    lints

let test_termination_lint () =
  (* x + 0 -> 0 + x does not decrease the termination weight; rewriting
     could ping-pong forever, so the lint must be fatal. *)
  let flipped =
    mk "mutant-add-zero-flip"
      (P.Pbinop (Ir.Types.Add, P.Pvar 0, P.Pconst 0))
      (P.Rbinop (Ir.Types.Add, P.Rconst 0, P.Rvar 0))
  in
  let lints = V.lint_catalog [ flipped ] in
  Alcotest.(check bool) "termination lint fires" true (has_fatal_for flipped.P.name lints);
  Alcotest.(check bool)
    "verify_all rejects the catalog" false
    (V.ok (V.verify_all ~seed:fixed_seed [ flipped ]))

let test_shadow_lint () =
  (* An unguarded earlier rule whose pattern subsumes a later one makes the
     later rule dead: first-match-wins never reaches it. *)
  let broad = mk "broad" (P.Pbinop (Ir.Types.And, P.Pvar 0, P.Pvar 1)) (P.Rvar 0) in
  let dead = mk "dead" (P.Pbinop (Ir.Types.And, P.Pvar 0, P.Pconst 0)) (P.Rconst 0) in
  let lints = V.lint_catalog [ broad; dead ] in
  Alcotest.(check bool) "shadow lint fires" true (has_fatal_for "dead" lints)

(* ---------------- matcher vs. direct semantics ---------------- *)

(* The compiled matcher replaced hand-coded identity ladders whose contract
   was: the simplified expression is semantically identical to the plain
   operator application, with strict trap agreement. Property-test exactly
   that contract over random atoms, through the shallow rule subject
   ([Helpers.Shallow]). *)

exception Trap

let rec eval_expr (env : int array) (e : H.t) : int =
  match H.node e with
  | H.Const n -> n
  | H.Value v -> env.(v)
  | H.Sum ts ->
      List.fold_left
        (fun acc (t : H.term) ->
          acc + (t.H.coeff * List.fold_left (fun p v -> p * env.(v)) 1 t.H.factors))
        0 ts
  | H.Op (H.Ubop op, [ a; b ]) -> (
      let x = eval_expr env a and y = eval_expr env b in
      match Ir.Types.fold_binop op x y with Some r -> r | None -> raise Trap)
  | H.Op (H.Uuop op, [ a ]) -> Ir.Types.eval_unop op (eval_expr env a)
  | H.Cmp (c, a, b) -> Ir.Types.eval_cmp c (eval_expr env a) (eval_expr env b)
  | _ -> Alcotest.fail "unexpected expression shape from binop_atoms"

let rank v = v + 1

(* One arena for the generated atoms: the properties only build cells. *)
let arena = H.create ()

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map (H.const arena) (int_range (-8) 8);
        map (H.const arena) (oneofl [ min_int; max_int; -1; 62; 63; 1 lsl 61 ]);
        map (H.value arena) (int_range 0 3);
      ])

let gen_binop =
  QCheck.Gen.oneofl
    Ir.Types.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

let gen_unop = QCheck.Gen.oneofl Ir.Types.[ Neg; Lnot; Bnot ]

let arb_env =
  QCheck.(
    array_of_size (Gen.return 4)
      (oneof [ int_range (-8) 8; oneofl [ min_int; max_int; 62; 1 lsl 61 ] ]))

let sem env e = try Some (eval_expr env e) with Trap -> None

let prop_binop_atoms_semantics =
  QCheck.Test.make ~name:"binop_atoms agrees with operator semantics (trap-strict)"
    ~count:2000
    QCheck.(
      quad (make gen_binop) (make ~print:H.to_string gen_atom)
        (make ~print:H.to_string gen_atom) arb_env)
    (fun (op, a, b, env) ->
      let direct =
        try
          let x = eval_expr env a and y = eval_expr env b in
          Ir.Types.fold_binop op x y
        with Trap -> None
      in
      direct = sem env (Helpers.Shallow.binop_atoms arena rank op a b))

let prop_unop_atom_semantics =
  QCheck.Test.make ~name:"unop_atom agrees with operator semantics" ~count:1000
    QCheck.(triple (make gen_unop) (make ~print:H.to_string gen_atom) arb_env)
    (fun (op, a, env) ->
      let direct = try Some (Ir.Types.eval_unop op (eval_expr env a)) with Trap -> None in
      direct = sem env (Helpers.Shallow.unop_atom arena rank op a))

(* ---------------- ten-benchmark congruence differential ---------------- *)

(* Per-benchmark whole-suite sums at scale 0.1, with the rule catalog off
   (constant folding and commutative canonicalization only) versus the full
   configuration. The rule engine may only improve on the catalog-free
   baseline: same value universe, at least as many constants and
   unreachable values, at most as many congruence classes. Computing the
   baseline from the same suite run keeps the differential valid when the
   workload generator evolves. *)
let suite_totals config funcs =
  let values = ref 0 and consts = ref 0 and unreach = ref 0 and classes = ref 0 in
  List.iter
    (fun f ->
      let st = Pgvn.Driver.run config f in
      let s = Pgvn.Driver.summarize st in
      values := !values + s.Pgvn.Driver.values;
      consts := !consts + s.Pgvn.Driver.constant_values;
      unreach := !unreach + s.Pgvn.Driver.unreachable_values;
      classes := !classes + s.Pgvn.Driver.congruence_classes)
    funcs;
  (!values, !consts, !unreach, !classes)

let test_benchmark_differential () =
  let suite = Workload.Suite.all ~scale:0.1 () in
  let baseline_config = { Pgvn.Config.full with Pgvn.Config.rules = false } in
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      let name = b.Workload.Suite.name in
      let bv, bc, bu, bk = suite_totals baseline_config funcs in
      let values, consts, unreach, classes = suite_totals Pgvn.Config.full funcs in
      Alcotest.(check int) (name ^ ": same value universe") bv values;
      Alcotest.(check bool)
        (Printf.sprintf "%s: constants %d >= baseline %d" name consts bc)
        true (consts >= bc);
      Alcotest.(check bool)
        (Printf.sprintf "%s: unreachable %d >= baseline %d" name unreach bu)
        true (unreach >= bu);
      Alcotest.(check bool)
        (Printf.sprintf "%s: classes %d <= baseline %d" name classes bk)
        true (classes <= bk))
    suite;
  Alcotest.(check int) "all ten benchmarks covered" 10 (List.length suite)

(* ---------------- observability ---------------- *)

let fired_func () =
  let bld = Ir.Builder.create ~name:"rules_obs" ~nparams:1 in
  let b = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b 0 in
  let v = Ir.Builder.binop bld b Ir.Types.And p p in
  Ir.Builder.ret bld b v;
  Ir.Builder.finish bld

let test_fired_counters () =
  let o = Obs.create () in
  ignore (Pgvn.Driver.run ~obs:o Pgvn.Config.full (fired_func ()));
  let snap = Obs.Metrics.snapshot o.Obs.metrics in
  let fired =
    List.filter
      (fun (k, n) ->
        String.length k > 12 && String.sub k 0 12 = "rules.fired." && n > 0)
      snap.Obs.Metrics.counters
  in
  Alcotest.(check bool)
    "x & x fires and-self" true
    (List.mem_assoc "rules.fired.and-self" fired)

(* Fire counts live in each run's Run_stats, not in the shared table, so
   they cannot depend on which domain ran a routine or on what that domain
   ran before. *)
let fired_counts (o : Obs.t) =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"rules.fired." k)
    (Obs.Metrics.snapshot o.Obs.metrics).Obs.Metrics.counters

let run_observed f =
  let o = Obs.create () in
  ignore (Pgvn.Driver.run ~obs:o Pgvn.Config.full f);
  o

let merged_counts contexts =
  let dst = Obs.create () in
  Array.iter (fun o -> Obs.merge_into ~dst o) contexts;
  fired_counts dst

(* The corpus fires no catalog rule, so generated routines ride along. *)
let test_fired_parallel_matches_sequential () =
  let funcs =
    Array.of_list
      (List.map (fun (_, src) -> Helpers.func_of_src src) Workload.Corpus.all_named
      @ List.init 24 (fun seed -> Workload.Generator.func ~seed ~name:"g" ()))
  in
  let seq = merged_counts (Array.map run_observed funcs) in
  let par =
    merged_counts (Par.Pool.with_pool ~domains:2 (fun pool -> Par.Pool.map pool run_observed funcs))
  in
  Alcotest.(check bool) "some catalog rule fires" true
    (List.exists (fun (k, _) -> k <> "rules.fired.const-fold") seq);
  Alcotest.(check (list (pair string int))) "2-domain totals equal sequential" seq par

let test_fired_repeatable () =
  let f = fired_func () in
  let first = fired_counts (run_observed f) in
  Alcotest.(check bool) "and-self fires" true (List.mem_assoc "rules.fired.and-self" first);
  Alcotest.(check (list (pair string int)))
    "a second run reports the same counts" first
    (fired_counts (run_observed f))

let test_rules_off_config () =
  (* With the catalog disabled the And-idempotence congruence disappears
     (x & x stays its own class) but the run still succeeds. *)
  let f = fired_func () in
  let on = Pgvn.Driver.summarize (Pgvn.Driver.run Pgvn.Config.full f) in
  let off =
    Pgvn.Driver.summarize
      (Pgvn.Driver.run { Pgvn.Config.full with Pgvn.Config.rules = false } f)
  in
  Alcotest.(check bool)
    "catalog strictly refines" true
    (off.Pgvn.Driver.congruence_classes > on.Pgvn.Driver.congruence_classes)

let suite =
  [
    Alcotest.test_case "catalog passes the soundness verifier" `Quick test_catalog_verifies;
    Alcotest.test_case "verifier is deterministic under a fixed seed" `Quick
      test_verifier_deterministic;
    Alcotest.test_case "unsound mutant rules are rejected" `Quick test_mutants_rejected;
    Alcotest.test_case "non-terminating rule draws a fatal lint" `Quick test_termination_lint;
    Alcotest.test_case "shadowed rule draws a fatal lint" `Quick test_shadow_lint;
    QCheck_alcotest.to_alcotest prop_binop_atoms_semantics;
    QCheck_alcotest.to_alcotest prop_unop_atom_semantics;
    Alcotest.test_case "ten-benchmark congruence differential" `Slow
      test_benchmark_differential;
    Alcotest.test_case "rule firings surface as Obs counters" `Quick test_fired_counters;
    Alcotest.test_case "fire totals: 2-domain pool equals sequential" `Quick
      test_fired_parallel_matches_sequential;
    Alcotest.test_case "fire counts repeat on one domain" `Quick test_fired_repeatable;
    Alcotest.test_case "Config.rules = false disables the catalog" `Quick
      test_rules_off_config;
  ]
