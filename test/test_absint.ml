(* The sparse abstract-interpretation layer: lattice laws and transfer
   soundness for both domains (randomized), agreement of the constant
   domain with the independent SCCP baseline, end-to-end soundness of the
   interval facts against the interpreter, precision pins for refinement
   and widening, and the static cross-checker — which must accept every
   honest GVN run and refute one with a seeded implication-table fault. *)

module Itv = Absint.Itv
module Konst = Absint.Konst

(* --- generators --- *)

let gen_bound =
  QCheck.Gen.(frequency [ (4, map Option.some (int_range (-40) 40)); (1, return None) ])

let gen_itv =
  QCheck.Gen.(
    frequency
      [
        (1, return Itv.Bot);
        ( 8,
          map2
            (fun lo hi ->
              match (lo, hi) with
              | Some l, Some h when l > h -> Itv.make (Some h) (Some l)
              | _ -> Itv.make lo hi)
            gen_bound gen_bound );
      ])

let arb_itv = QCheck.make ~print:(Fmt.to_to_string Itv.pp) gen_itv

let gen_konst =
  QCheck.Gen.(
    frequency
      [
        (1, return Konst.Bot);
        (4, map (fun k -> Konst.Cst k) (int_range (-20) 20));
        (2, map (fun v -> Konst.Copy v) (int_range 0 5));
        (1, return Konst.Any);
      ])

let arb_konst = QCheck.make ~print:(Fmt.to_to_string Konst.pp) gen_konst

let all_binops =
  Ir.Types.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

let all_cmps = Ir.Types.[ Eq; Ne; Lt; Le; Gt; Ge ]
let all_unops = Ir.Types.[ Neg; Lnot; Bnot ]

(* A concrete member of an interval, clamped to a finite window (None when
   the window misses the interval — the property is then vacuous). *)
let sample rng = function
  | Itv.Bot -> None
  | Itv.Itv (lo, hi) ->
      let l = match lo with Some l -> max l (-60) | None -> -60 in
      let h = match hi with Some h -> min h 60 | None -> 60 in
      if l > h then None else Some (Util.Prng.range rng l h)

(* --- lattice laws (satellite: join laws + widen/transfer properties) --- *)

let lattice_laws name arb equal join widen bottom top =
  [
    QCheck.Test.make ~name:(name ^ ": join is commutative") ~count:500
      (QCheck.pair arb arb)
      (fun (a, b) -> equal (join a b) (join b a));
    QCheck.Test.make ~name:(name ^ ": join is associative") ~count:500
      (QCheck.triple arb arb arb)
      (fun (a, b, c) -> equal (join a (join b c)) (join (join a b) c));
    QCheck.Test.make ~name:(name ^ ": join is idempotent") ~count:500 arb (fun a ->
        equal (join a a) a);
    QCheck.Test.make ~name:(name ^ ": bottom is the identity") ~count:500 arb (fun a ->
        equal (join bottom a) a);
    QCheck.Test.make ~name:(name ^ ": top absorbs") ~count:500 arb (fun a ->
        equal (join top a) top);
    QCheck.Test.make ~name:(name ^ ": widen covers the join") ~count:500
      (QCheck.pair arb arb)
      (fun (a, b) ->
        let j = join a b in
        let w = widen a j in
        equal (join w j) w);
  ]

let itv_laws = lattice_laws "itv" arb_itv Itv.equal Itv.join Itv.widen Itv.bottom Itv.top

let konst_laws =
  lattice_laws "konst" arb_konst Konst.equal Konst.join Konst.widen Konst.bottom Konst.top

(* --- concrete soundness of the interval transfer functions --- *)

let prop_itv_binop_sound =
  QCheck.Test.make ~name:"itv: binop transfer is sound" ~count:400
    QCheck.(triple arb_itv arb_itv (int_bound 1_000_000))
    (fun (a, b, seed) ->
      let rng = Util.Prng.create seed in
      List.for_all
        (fun op ->
          match (sample rng a, sample rng b) with
          | Some x, Some y -> (
              let d = Itv.binop op (0, a) (1, b) in
              match Ir.Types.eval_binop op x y with
              | r -> Itv.mem r d
              | exception Ir.Types.Division_by_zero -> true)
          | _ -> true)
        all_binops)

let prop_itv_unop_sound =
  QCheck.Test.make ~name:"itv: unop transfer is sound" ~count:400
    QCheck.(pair arb_itv (int_bound 1_000_000))
    (fun (a, seed) ->
      let rng = Util.Prng.create seed in
      List.for_all
        (fun op ->
          match sample rng a with
          | Some x -> Itv.mem (Ir.Types.eval_unop op x) (Itv.unop op (0, a))
          | None -> true)
        all_unops)

let prop_itv_cmp_sound =
  QCheck.Test.make ~name:"itv: cmp transfer is sound (incl. reflexive)" ~count:400
    QCheck.(triple arb_itv arb_itv (int_bound 1_000_000))
    (fun (a, b, seed) ->
      let rng = Util.Prng.create seed in
      List.for_all
        (fun op ->
          let distinct =
            match (sample rng a, sample rng b) with
            | Some x, Some y -> Itv.mem (Ir.Types.eval_cmp op x y) (Itv.cmp op (0, a) (1, b))
            | _ -> true
          in
          let reflexive =
            match sample rng a with
            | Some x -> Itv.mem (Ir.Types.eval_cmp op x x) (Itv.cmp op (0, a) (0, a))
            | None -> true
          in
          distinct && reflexive)
        all_cmps)

let prop_itv_refine_sound =
  (* Refining by a satisfied constraint never loses the witness. *)
  QCheck.Test.make ~name:"itv: refine is sound" ~count:400
    QCheck.(triple arb_itv (int_range (-30) 30) (int_bound 1_000_000))
    (fun (a, k, seed) ->
      let rng = Util.Prng.create seed in
      List.for_all
        (fun op ->
          match sample rng a with
          | Some x when Ir.Types.eval_cmp op x k <> 0 -> Itv.mem x (Itv.refine a op k)
          | _ -> true)
        all_cmps)

let prop_itv_transfer_monotone =
  (* Monotonicity of binop and refine in each argument: widening an input
     can only widen the output. *)
  QCheck.Test.make ~name:"itv: transfer functions are monotone" ~count:300
    QCheck.(triple arb_itv arb_itv arb_itv)
    (fun (a, b, c) ->
      let a' = Itv.join a c in
      List.for_all
        (fun op ->
          Itv.leq (Itv.binop op (0, a) (1, b)) (Itv.binop op (0, a') (1, b))
          && Itv.leq (Itv.binop op (0, b) (1, a)) (Itv.binop op (0, b) (1, a')))
        all_binops
      && List.for_all
           (fun op ->
             List.for_all
               (fun k -> Itv.leq (Itv.refine a op k) (Itv.refine a' op k))
               [ -3; 0; 7 ])
           all_cmps)

let prop_konst_transfer_sound =
  (* A Cst result of the constant domain is the concrete result. *)
  QCheck.Test.make ~name:"konst: folded constants are exact" ~count:500
    QCheck.(pair (int_range (-25) 25) (int_range (-25) 25))
    (fun (x, y) ->
      List.for_all
        (fun op ->
          match Konst.binop op (0, Konst.Cst x) (1, Konst.Cst y) with
          | Konst.Cst r -> (
              match Ir.Types.eval_binop op x y with
              | r' -> r = r'
              | exception Ir.Types.Division_by_zero -> false)
          | Konst.Any -> (
              (* folding only declines on a trap *)
              match Ir.Types.eval_binop op x y with
              | _ -> false
              | exception Ir.Types.Division_by_zero -> true)
          | _ -> false)
        all_binops
      && List.for_all
           (fun op ->
             Konst.cmp op (0, Konst.Cst x) (1, Konst.Cst y)
             = Konst.Cst (Ir.Types.eval_cmp op x y))
           all_cmps)

(* --- end-to-end: interval facts hold on every observed execution --- *)

let prop_ranges_sound_on_programs =
  QCheck.Test.make ~name:"interval facts hold on every execution" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"ai" () in
      let res = Absint.Ranges.run f in
      let rng = Util.Prng.create (seed + 7) in
      let ok = ref true in
      for _ = 1 to 8 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
        ignore
          (Ir.Interp.run_instrumented ~fuel:200_000
             ~on_def:(fun i v ->
               if not (Itv.mem v res.Absint.Ranges.facts.(i)) then ok := false)
             ~on_edge:(fun e -> if not res.Absint.Ranges.edge_exec.(e) then ok := false)
             ~on_block:(fun b -> if not res.Absint.Ranges.block_exec.(b) then ok := false)
             f args)
      done;
      !ok)

(* --- differential: Konst without refinement is exactly the SCCP baseline
   (same two-worklist fixpoint, independently implemented) --- *)

let prop_konst_matches_sccp =
  QCheck.Test.make ~name:"konst (refine off) agrees with the SCCP baseline" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"sc" () in
      let k = Absint.Consts.run ~refine:false f in
      let s = Baselines.Sccp.run f in
      k.Absint.Consts.block_exec = s.Baselines.Sccp.block_executable
      && k.Absint.Consts.edge_exec = s.Baselines.Sccp.edge_executable
      &&
      let ok = ref true in
      Array.iteri
        (fun i d ->
          if Ir.Func.defines_value (Ir.Func.instr f i) then
            let agree =
              (* The lattices correspond under the inverted naming: Sccp's
                 Top is "unvisited" (our Bot), its Bottom is "varying" (our
                 Any — and Copy, which Sccp cannot express). *)
              match (d, s.Baselines.Sccp.value.(i)) with
              | Konst.Cst a, Baselines.Sccp.Const b -> a = b
              | Konst.Bot, Baselines.Sccp.Top -> true
              | (Konst.Any | Konst.Copy _), Baselines.Sccp.Bottom -> true
              | _ -> false
            in
            if not agree then ok := false)
        k.Absint.Consts.facts;
      !ok)

(* --- precision pins: refinement and widening behave as designed --- *)

let test_widening_terminates_precisely () =
  let f =
    Helpers.func_of_src "routine w(a) { i = 0; while (i < 10) { i = i + 1; } return i; }"
  in
  let res = Absint.Ranges.run f in
  let ret_block = ref (-1) and ret_val = ref (-1) in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Ir.Func.Return v ->
          ret_block := Ir.Func.block_of_instr f idx;
          ret_val := v
      | _ -> ())
    f.Ir.Func.instrs;
  (* The header fact widens to [0, +inf); the exit guard narrows the
     returned environment to [10, +inf) — refinement recovering what
     widening gave up. *)
  let d = Absint.Ranges.env_at res !ret_block !ret_val in
  Alcotest.(check string)
    "exit environment" "[10, +inf]"
    (Fmt.to_to_string Itv.pp d)

let test_refinement_proves_contradiction_dead () =
  let f =
    Helpers.func_of_src
      "routine c(a) { r = 0; if (a > 5) { if (a < 3) { r = 9; } } return r; }"
  in
  let res = Absint.Ranges.run f in
  let b9 = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with Ir.Func.Const 9 -> b9 := Ir.Func.block_of_instr f i | _ -> ())
    f.Ir.Func.instrs;
  Alcotest.(check bool) "found the guarded block" true (!b9 >= 0);
  Alcotest.(check bool)
    "contradictorily-guarded block cannot execute" false
    res.Absint.Ranges.block_exec.(!b9)

(* The front end spells [-1] as a negated constant; the branch-edge facts
   fold it, so a guard [a == -1] pins [a] in both sparse analyses. *)
let test_refinement_negative_constant_guard () =
  let f =
    Helpers.func_of_src "routine m(a) { r = 0; if (a == -1) { r = a + 7; } return r; }"
  in
  let a = ref (-1) and b7 = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ir.Func.Param 0 -> a := i
      | Ir.Func.Const 7 -> b7 := Ir.Func.block_of_instr f i
      | _ -> ())
    f.Ir.Func.instrs;
  Alcotest.(check bool) "found the parameter and the guarded block" true (!a >= 0 && !b7 >= 0);
  let ranges = Absint.Ranges.run f and consts = Absint.Consts.run f in
  Alcotest.(check string)
    "interval under the guard" "[-1, -1]"
    (Fmt.to_to_string Itv.pp (Absint.Ranges.env_at ranges !b7 !a));
  Alcotest.(check (option int))
    "constant under the guard" (Some (-1))
    (Absint.Konst.is_const (Absint.Consts.env_at consts !b7 !a))

(* Order-robust disequality refinement. The constraints a block inherits
   arrive in dominator-chain order, and switch-case exclusions in case
   order — neither is a semantic order. Disequalities bite only at domain
   boundaries, so both sites iterate their refinement folds to a fixpoint;
   these pins fail under a single-pass fold. *)

let test_refinement_ne_order_robust () =
  (* x ≠ 3 is learned *before* x > 2 on the dominator chain, yet the
     inner block still needs x ∈ [4, ∞): a < 4 there is contradictory. *)
  let f =
    Helpers.func_of_src
      "routine n(a) { r = 0; if (a != 3) { if (a > 2) { if (a < 4) { r = 9; } } } return r; }"
  in
  let res = Absint.Ranges.run f in
  let b9 = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with Ir.Func.Const 9 -> b9 := Ir.Func.block_of_instr f i | _ -> ())
    f.Ir.Func.instrs;
  Alcotest.(check bool) "found the guarded block" true (!b9 >= 0);
  Alcotest.(check bool)
    "boundary disequality sharpens regardless of order" false
    res.Absint.Ranges.block_exec.(!b9)

let test_switch_default_decided () =
  (* x ∈ [3,5] and the cases cover {4; 5; 3} — but discovering that the
     default is dead requires re-folding the exclusions: the first pass
     over (≠4, ≠5, ≠3) only narrows [3,5] to [4,4]. *)
  let f =
    Helpers.func_of_src
      "routine sd(x) {\n\
      \  if (x >= 3) { if (x <= 5) {\n\
      \    switch (x) { case 4: { return 1; } case 5: { return 2; } case 3: { return 3; } }\n\
      \    return 9; } }\n\
      \  return 0; }"
  in
  let res = Absint.Ranges.run f in
  let b9 = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with Ir.Func.Const 9 -> b9 := Ir.Func.block_of_instr f i | _ -> ())
    f.Ir.Func.instrs;
  Alcotest.(check bool) "found the default block" true (!b9 >= 0);
  Alcotest.(check bool)
    "exhaustive cases prove the default dead" false
    res.Absint.Ranges.block_exec.(!b9)

(* --- the static cross-checker --- *)

let assert_crosscheck_clean name (r : Absint.Crosscheck.report) =
  if not (Absint.Crosscheck.ok r) then
    Alcotest.failf "%s: %s" name (Fmt.to_to_string Absint.Crosscheck.pp_report r)

let test_crosscheck_corpus () =
  List.iter
    (fun (name, src) ->
      let f = Helpers.func_of_src src in
      List.iter
        (fun (cname, config) ->
          let st = Pgvn.Driver.run config f in
          assert_crosscheck_clean
            (Printf.sprintf "%s under %s" name cname)
            (Absint.Crosscheck.run st))
        Helpers.all_configs)
    Workload.Corpus.all_named

let test_crosscheck_benchmarks () =
  (* The acceptance bar: every decided branch and φ-predicate inference on
     all ten workload benchmarks, zero contradictions — purely statically. *)
  let branches = ref 0 and inferences = ref 0 and phis = ref 0 in
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          List.iter
            (fun config ->
              let st = Pgvn.Driver.run config f in
              let r = Absint.Crosscheck.run st in
              branches := !branches + r.Absint.Crosscheck.branches_checked;
              inferences := !inferences + r.Absint.Crosscheck.inferences_checked;
              phis := !phis + r.Absint.Crosscheck.phi_preds_checked;
              assert_crosscheck_clean b.Workload.Suite.name r)
            [ Pgvn.Config.full; Pgvn.Config.full_extended ])
        funcs)
    (Workload.Suite.all ~scale:0.1 ());
  Alcotest.(check bool) "some branch claims were checked" true (!branches > 0);
  Alcotest.(check bool) "some inference claims were checked" true (!inferences > 0);
  Alcotest.(check bool) "some phi-predicate claims were checked" true (!phis > 0)

let prop_crosscheck_generated =
  QCheck.Test.make ~name:"crosscheck accepts honest runs on generated programs"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"xc" () in
      let st = Pgvn.Driver.run Pgvn.Config.full f in
      Absint.Crosscheck.ok (Absint.Crosscheck.run st))

let test_crosscheck_superseded_claims () =
  (* Generated routines where an optimistic pass decides a comparison from
     the sole reachable in-edge's predicate, and a later pass reaches the
     block along a second edge and re-evaluates the comparison as unknown
     (seeds 104, 210, 544): the superseded claim must not survive into the
     replay. Seed 180967 derives a constant in a block that a dominating
     [x = y] edge with disjoint intervals proves dead. *)
  List.iter
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"xc" () in
      let st = Pgvn.Driver.run Pgvn.Config.full f in
      assert_crosscheck_clean (Printf.sprintf "seed %d" seed) (Absint.Crosscheck.run st))
    [ 104; 210; 544; 180967 ]

let test_crosscheck_second_round () =
  (* What a second GVN round sees: the output of a whole standard round
     (CFG cleanup, LVN, DCE, GVN + rewrite, cleanup) on every corpus
     routine. GVN's claims on it must replay clean too. *)
  List.iter
    (fun (name, src) ->
      let f = Helpers.func_of_src src in
      let g =
        (Transform.Pipeline.run_list Transform.Pipeline.Options.default
           (Transform.Pipeline.standard_passes ~rounds:1 ())
           f)
          .Transform.Pipeline.func
      in
      assert_crosscheck_clean name (Absint.Crosscheck.run (Pgvn.Driver.run Pgvn.Config.full g)))
    Workload.Corpus.all_named

let test_crosscheck_catches_faulty_inference () =
  (* Seeded mutant: flip every False implication verdict to True — the
     engine then believes [a < 3] under the dominating fact [a > 5] and
     folds the comparison to 1. The cross-checker must refute this from
     the interval semantics alone, no interpreter involved. *)
  let f =
    Helpers.func_of_src "routine m(a) { r = 0; if (a > 5) { r = a < 3; } return r; }"
  in
  let honest = Pgvn.Driver.run Pgvn.Config.full f in
  assert_crosscheck_clean "honest run" (Absint.Crosscheck.run honest);
  let mutant =
    Pgvn.Infer.with_fault
      (function Pgvn.Infer.False -> Pgvn.Infer.True | v -> v)
      (fun () -> Pgvn.Driver.run Pgvn.Config.full f)
  in
  let r = Absint.Crosscheck.run mutant in
  Alcotest.(check bool) "mutant run is refuted" false (Absint.Crosscheck.ok r)

let test_crosscheck_closure_claims_once () =
  (* Under [pred_closure] single-fact and closure claims share one list.
     With every closure verdict flipped, [x > 2 ∧ x ≠ 3 ⇒ x > 3] is
     claimed false: each refuted claim is reported once, a closure claim
     under a pinned id and no other claim under one. *)
  let f =
    Helpers.func_of_src
      "routine sharpen(x) { if (x > 2) { if (x != 3) { if (x > 3) { return 1; } return 2; } } \
       return 0; }"
  in
  let config = { Pgvn.Config.full with pred_closure = true } in
  assert_crosscheck_clean "honest run" (Absint.Crosscheck.run (Pgvn.Driver.run config f));
  let st =
    Pred.Closure.with_fault Pred.Closure.Flip_verdict (fun () -> Pgvn.Driver.run config f)
  in
  let r = Absint.Crosscheck.run st in
  let cs = r.Absint.Crosscheck.contradictions in
  Alcotest.(check bool)
    "closure verdicts were replayed" true
    (r.Absint.Crosscheck.pred_checked >= 1);
  Alcotest.(check bool) "the flipped verdict is refuted" false (Absint.Crosscheck.ok r);
  Alcotest.(check int) "no contradiction reported twice" (List.length cs)
    (List.length (List.sort_uniq compare cs));
  List.iter
    (fun (c : Absint.Crosscheck.contradiction) ->
      let closure = String.ends_with ~suffix:"(multi-fact closure)" c.claim in
      let pinned =
        List.exists
          (fun prefix -> String.starts_with ~prefix c.refutation)
          [ "[pred-vs-interval] "; "[pred-vs-infer] " ]
      in
      Alcotest.(check bool) (c.claim ^ ": pinned id iff a closure claim") closure pinned)
    cs

let suite =
  List.map QCheck_alcotest.to_alcotest (itv_laws @ konst_laws)
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_itv_binop_sound;
        prop_itv_unop_sound;
        prop_itv_cmp_sound;
        prop_itv_refine_sound;
        prop_itv_transfer_monotone;
        prop_konst_transfer_sound;
        prop_ranges_sound_on_programs;
        prop_konst_matches_sccp;
        prop_crosscheck_generated;
      ]
  @ [
      Alcotest.test_case "widening + exit-guard refinement" `Quick
        test_widening_terminates_precisely;
      Alcotest.test_case "disequality refinement is order-robust" `Quick
        test_refinement_ne_order_robust;
      Alcotest.test_case "exhaustive switch cases decide the default" `Quick
        test_switch_default_decided;
      Alcotest.test_case "contradictory guards prove a block dead" `Quick
        test_refinement_proves_contradiction_dead;
      Alcotest.test_case "a negative-constant guard pins the value" `Quick
        test_refinement_negative_constant_guard;
      Alcotest.test_case "crosscheck: corpus clean under every config" `Quick
        test_crosscheck_corpus;
      Alcotest.test_case "crosscheck: ten benchmarks, zero contradictions" `Quick
        test_crosscheck_benchmarks;
      Alcotest.test_case "crosscheck: superseded optimistic claims are dropped" `Quick
        test_crosscheck_superseded_claims;
      Alcotest.test_case "crosscheck: second-round GVN inputs replay clean" `Quick
        test_crosscheck_second_round;
      Alcotest.test_case "crosscheck: seeded inference fault is caught" `Quick
        test_crosscheck_catches_faulty_inference;
      Alcotest.test_case "crosscheck: a closure claim is reported once, pinned" `Quick
        test_crosscheck_closure_claims_once;
    ]
