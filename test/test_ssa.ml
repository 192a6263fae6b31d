(* SSA construction: well-formedness, semantics preservation, and the three
   φ-placement policies. *)

let build ?pruning seed = Workload.Generator.func ?pruning ~seed ~name:"s" ()

let count_phis f =
  let n = ref 0 in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    if Ir.Func.is_phi (Ir.Func.instr f i) then incr n
  done;
  !n

let prop_verifies pruning name =
  QCheck.Test.make ~name ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = build ~pruning seed in
      match Check.check_exn f with _ -> true | exception _ -> false)

let prop_pruning_semantics =
  QCheck.Test.make ~name:"all pruning variants are semantically equivalent" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let fm = build ~pruning:Ssa.Construct.Minimal seed in
      let fs = build ~pruning:Ssa.Construct.Semi_pruned seed in
      let fp = build ~pruning:Ssa.Construct.Pruned seed in
      let rng = Util.Prng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-20) 20) in
        let r = Ir.Interp.run fm args in
        if
          not
            (Ir.Interp.equal_result r (Ir.Interp.run fs args)
            && Ir.Interp.equal_result r (Ir.Interp.run fp args))
        then ok := false
      done;
      !ok)

let prop_pruning_monotone =
  QCheck.Test.make ~name:"phi counts: minimal >= semi-pruned >= pruned" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let m = count_phis (build ~pruning:Ssa.Construct.Minimal seed) in
      let s = count_phis (build ~pruning:Ssa.Construct.Semi_pruned seed) in
      let p = count_phis (build ~pruning:Ssa.Construct.Pruned seed) in
      m >= s && s >= p)

let test_straightline_no_phis () =
  let f =
    Ssa.Construct.of_cir
      (Ir.Lower.lower_routine (Ir.Parser.parse_one "routine f(a) { x = a + 1; y = x * 2; return y; }"))
  in
  Alcotest.(check int) "no phis in straight-line code" 0 (count_phis f)

let test_diamond_one_phi () =
  let f =
    Ssa.Construct.of_cir ~pruning:Ssa.Construct.Pruned
      (Ir.Lower.lower_routine
         (Ir.Parser.parse_one "routine f(a) { x = 0; if (a > 0) x = 1; return x; }"))
  in
  Alcotest.(check int) "exactly one phi for the merged variable" 1 (count_phis f)

let test_loop_phi_placement () =
  let f =
    Ssa.Construct.of_cir ~pruning:Ssa.Construct.Pruned
      (Ir.Lower.lower_routine
         (Ir.Parser.parse_one
            "routine f(n) { i = 0; while (i < n) { i = i + 1; } return i; }"))
  in
  (* i needs a phi at the loop header; n does not (single definition). *)
  Alcotest.(check int) "one phi at the loop header" 1 (count_phis f);
  ignore (Check.check_exn f)

let test_verify_rejects_bad_ssa () =
  (* A use before its definition in the same block must be rejected: build
     v1 = v2 + 1; v2 = 7 by hand. The builder cannot express this (ids are
     allocated in order), so check the dominance case instead: a value
     defined in one branch used in the other. *)
  let bld = Ir.Builder.create ~name:"bad" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 0 in
  ignore (Ir.Builder.branch bld b0 p ~ift:b1 ~iff:b2);
  let x = Ir.Builder.binop bld b1 Ir.Types.Add p p in
  Ir.Builder.ret bld b1 x;
  Ir.Builder.ret bld b2 x (* use of x not dominated by its definition *);
  let f = Ir.Builder.finish bld in
  match Check.check_exn f with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "verifier accepted a non-dominating use"

let test_copy_coalescing () =
  (* Register copies disappear during SSA construction. *)
  let f =
    Ssa.Construct.of_cir
      (Ir.Lower.lower_routine (Ir.Parser.parse_one "routine f(a) { x = a; y = x; return y; }"))
  in
  (* Only params + return remain. *)
  Alcotest.(check int) "copies coalesced" 0
    (Array.to_list f.Ir.Func.instrs
    |> List.filter (function Ir.Func.Binop _ | Ir.Func.Unop _ -> true | _ -> false)
    |> List.length);
  match Ir.Interp.run f [| 9 |] with
  | Ir.Interp.Ret 9 -> ()
  | r -> Alcotest.failf "wrong result %a" Ir.Interp.pp_result r

(* The linear construction must print exactly what the dense reference
   construction (test/ssa_oracle.ml) prints, for every pruning mode. *)
let modes = Ssa.Construct.[ Minimal; Semi_pruned; Pruned ]

let matches_oracle cir =
  List.for_all
    (fun pruning ->
      Ir.Printer.to_string (Ssa.Construct.of_cir ~pruning cir)
      = Ir.Printer.to_string (Ssa_oracle.of_cir ~pruning cir))
    modes

let prop_matches_oracle name ?profile count =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 100000)
    (fun seed ->
      matches_oracle (Ir.Lower.lower_routine (Workload.Generator.routine ?profile ~seed ~name:"o" ())))

let test_corpus_matches_oracle () =
  List.iter
    (fun (name, src) ->
      if not (matches_oracle (Ir.Lower.lower_routine (Ir.Parser.parse_one src))) then
        Alcotest.failf "%s: of_cir differs from the dense oracle" name)
    Workload.Corpus.all_named

(* Complexity guard: words allocated by [of_cir] per output instruction must
   not grow with routine size. Six routines at each of two sizes (~250 and
   ~5,700 semi-pruned instructions); the large value may be at most twice
   the small one. The dense construction's nblocks × nregs tables grow it
   2.6× (minimal) to 11× (semi-pruned) here. Allocation counts are
   deterministic, so this needs no timing threshold. *)
let words_per_instr pruning stmt_budget =
  let profile = { Workload.Generator.default_profile with stmt_budget; max_depth = 8 } in
  let cirs =
    List.init 6 (fun k ->
        Ir.Lower.lower_routine (Workload.Generator.routine ~profile ~seed:(k + 1) ~name:"w" ()))
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let instrs =
    List.fold_left (fun n c -> n + Ir.Func.num_instrs (Ssa.Construct.of_cir ~pruning c)) 0 cirs
  in
  (allocated () -. before) /. float_of_int instrs

let test_allocation_linear () =
  List.iter
    (fun pruning ->
      let small = words_per_instr pruning 50 and large = words_per_instr pruning 1600 in
      if large > 2. *. small then
        Alcotest.failf "%s: %.0f words/instr at ~5,700 instrs vs %.0f at ~250"
          (Ssa.Construct.pruning_to_string pruning)
          large small)
    modes

let suite =
  [
    prop_verifies Ssa.Construct.Minimal "minimal SSA verifies" |> QCheck_alcotest.to_alcotest;
    prop_verifies Ssa.Construct.Semi_pruned "semi-pruned SSA verifies" |> QCheck_alcotest.to_alcotest;
    prop_verifies Ssa.Construct.Pruned "pruned SSA verifies" |> QCheck_alcotest.to_alcotest;
    QCheck_alcotest.to_alcotest prop_pruning_semantics;
    QCheck_alcotest.to_alcotest prop_pruning_monotone;
    Alcotest.test_case "straight-line code has no phis" `Quick test_straightline_no_phis;
    Alcotest.test_case "diamond merge places one phi" `Quick test_diamond_one_phi;
    Alcotest.test_case "loop variable gets a header phi" `Quick test_loop_phi_placement;
    Alcotest.test_case "verifier rejects non-dominating uses" `Quick test_verify_rejects_bad_ssa;
    Alcotest.test_case "copies are coalesced" `Quick test_copy_coalescing;
    prop_matches_oracle "of_cir prints as the dense oracle (default profile)" 100
    |> QCheck_alcotest.to_alcotest;
    prop_matches_oracle "of_cir prints as the dense oracle (300 statements, depth 8)"
      ~profile:{ Workload.Generator.default_profile with stmt_budget = 300; max_depth = 8 }
      10
    |> QCheck_alcotest.to_alcotest;
    Alcotest.test_case "of_cir prints as the dense oracle on the corpus" `Quick
      test_corpus_matches_oracle;
    Alcotest.test_case "allocation per instruction does not grow with size" `Quick
      test_allocation_linear;
  ]
