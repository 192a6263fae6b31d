(* φ-predication specifics (Figure 8): block predicates, canonical edge
   order, the abort conditions, and congruence across control structures. *)

let full = Pgvn.Config.full

let run src =
  let f = Helpers.func_of_src src in
  (f, Pgvn.Driver.run full f)

let test_block_predicate_computed () =
  (* A join that postdominates its idom gets an OR-of-paths predicate. *)
  let f, st = run "routine f(a) { x = 0; if (a > 0) x = 1; return x; }" in
  let join = ref (-1) in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    if Array.length (Ir.Func.block f b).Ir.Func.preds >= 2 then join := b
  done;
  (match st.Pgvn.State.pred_block.(!join) with
  | Some p -> (
      match Pgvn.Hexpr.node p with
      | Pgvn.Hexpr.Por [ _; _ ] -> ()
      | _ -> Alcotest.failf "expected a 2-way OR, got %s" (Pgvn.Hexpr.to_string p))
  | None -> Alcotest.fail "join block has no predicate");
  (* CANONICAL lists exactly the reachable incoming edges. *)
  Alcotest.(check int) "canonical arity" 2 (Array.length st.Pgvn.State.canonical.(!join))

let test_canonical_order_flips_with_operator () =
  (* The edge whose predicate has operator =, < or <= comes first (§2.8),
     so `if (a < b) p = 7;` and `if (b >= a) { } else q = 7;` produce
     congruent φs even though the branch arms are mirrored. *)
  (* ¬(a < b) is (a >= b): the second diamond tests the negation and puts
     the assignment in the else arm, so the φs align only through the
     canonical ordering of outgoing edges. *)
  let src =
    "routine f(a, b) { p = 0; if (a < b) p = 7; q = 0; if (a >= b) { } else { q = 7; } \
     return p - q; }"
  in
  Helpers.check_const "mirrored diamonds congruent" (Some 0) (Helpers.run_and_return full src)

let test_loop_header_has_no_predicate () =
  (* A loop header's predicate computation aborts on the back edge. *)
  let f, st = run "routine f(n) { i = 0; while (i < n) { i = i + 1; } return i; }" in
  let header = ref (-1) in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    if Pgvn.State.has_incoming_back_edge st b then header := b
  done;
  Alcotest.(check bool) "found the header" true (!header >= 0);
  Alcotest.(check bool) "no predicate for cyclic joins" true
    (st.Pgvn.State.pred_block.(!header) = None)

let test_nested_diamond_predicates () =
  (* The P/Q pattern of Figure 1: both accumulators merge over congruent
     nested structures. *)
  let src =
    "routine f(x) { p = 0; if (x >= 1) { if (x >= 9) p = 1; } \
     q = 0; if (x >= 1) { if (x >= 9) q = 1; } return p - q; }"
  in
  Helpers.check_const "nested congruent structures" (Some 0) (Helpers.run_and_return full src)

let test_different_predicates_stay_apart () =
  (* Diamonds over different conditions must NOT merge. *)
  let src =
    "routine f(a, b) { p = 0; if (a < b) p = 7; q = 0; if (a > b) q = 7; return p - q; }"
  in
  Helpers.check_const "different predicates: no merge" None (Helpers.run_and_return full src);
  (* and the result indeed differs at run time for a < b *)
  let f = Helpers.func_of_src src in
  match Ir.Interp.run f [| 1; 2 |] with
  | Ir.Interp.Ret 7 -> ()
  | r -> Alcotest.failf "expected 7, got %a" Ir.Interp.pp_result r

let test_dead_arm_changes_predicate () =
  (* When one diamond's arm is unreachable the φ collapses instead of
     being predicated. *)
  let src = "routine f(a) { p = 0; if (2 > 3) p = 7; q = 0; if (a > 0) q = 7; return p; }" in
  let f, st = run src in
  Helpers.check_const "collapsed phi is 0" (Some 0) (Helpers.return_constant st f)

(* A three-way join whose middle paths pass through a second conditional
   that targets the join directly (no intermediate reconvergence): the
   Figure 2 block-11 shape. Built by hand — the mini-C lowering always
   reconverges ifs at their own joins, which the Figure 8 diamond shortcut
   then correctly flattens. *)
let build_three_way ~c1 ~c2 ~c3 =
  let bld = Ir.Builder.create ~name:"three" ~nparams:2 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let join = Ir.Builder.add_block bld in
  let x = Ir.Builder.param bld b0 0 in
  let y = Ir.Builder.param bld b0 1 in
  let zero = Ir.Builder.const bld b0 0 in
  let p = Ir.Builder.cmp bld b0 Ir.Types.Lt x y in
  let _, e_b0_b2 = Ir.Builder.branch bld b0 p ~ift:b1 ~iff:b2 in
  let q = Ir.Builder.cmp bld b1 Ir.Types.Lt x zero in
  let e_b1_t, e_b1_f = Ir.Builder.branch bld b1 q ~ift:join ~iff:join in
  ignore (c3 : int);
  let e_b2 = Ir.Builder.jump bld b2 ~dst:join in
  let phi = Ir.Builder.phi bld join in
  Ir.Builder.set_phi_arg bld ~phi ~edge:e_b1_t (Ir.Builder.const bld b1 c1);
  Ir.Builder.set_phi_arg bld ~phi ~edge:e_b1_f (Ir.Builder.const bld b1 c2);
  Ir.Builder.set_phi_arg bld ~phi ~edge:e_b2 (Ir.Builder.const bld b2 c3);
  ignore e_b0_b2;
  Ir.Builder.ret bld join phi;
  let f = Ir.Builder.finish bld in
  (Check.check_exn f, Ir.Builder.final_value bld phi)

let test_partial_predicate_shapes () =
  let f, _phi = build_three_way ~c1:1 ~c2:2 ~c3:3 in
  let st = Pgvn.Driver.run full f in
  let rec has_and e =
    match Pgvn.Hexpr.node e with
    | Pgvn.Hexpr.Pand _ -> true
    | Pgvn.Hexpr.Por arms -> List.exists has_and arms
    | _ -> false
  in
  (* the join's predicate must be an OR with AND arms for the two paths
     through the inner conditional *)
  (match st.Pgvn.State.pred_block.(3) with
  | Some p -> (
      match Pgvn.Hexpr.node p with
      | Pgvn.Hexpr.Por arms ->
          Alcotest.(check bool) "AND arms present" true (List.exists has_and arms);
          Alcotest.(check int) "three arms" 3 (List.length arms)
      | _ -> Alcotest.failf "expected OR, got %s" (Pgvn.Hexpr.to_string p))
  | None -> Alcotest.fail "join has no predicate");
  (* plain nested ifs stay flat thanks to the dominator shortcut *)
  let _, st2 = run "routine f(x) { p = 0; if (x >= 1) { if (x >= 9) { p = 1; } } return p; }" in
  let flat = ref true in
  Array.iter
    (fun p -> match p with Some p when has_and p -> flat := false | _ -> ())
    st2.Pgvn.State.pred_block;
  Alcotest.(check bool) "shortcut keeps simple nests flat" true !flat

let prop_phipred_soundness =
  (* φ-predication must never merge values that differ at run time:
     rechecked by the acyclic runtime-congruence property, here with a
     diamond-heavy generator profile. *)
  QCheck.Test.make ~name:"phi-predication sound on diamond-heavy programs" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let profile =
        {
          Workload.Generator.default_profile with
          loop_weight = 0;
          if_weight = 10;
          equality_guard_weight = 10;
          constant_guard_weight = 10;
        }
      in
      let f = Workload.Generator.func ~profile ~seed ~name:"pp" () in
      let st = Pgvn.Driver.run full f in
      let rng = Util.Prng.create (seed + 7) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-9) 9) in
        let _, env = Ir.Interp.run_with_env f args in
        let repr = Hashtbl.create 32 in
        Array.iteri
          (fun v value ->
            match value with
            | Some rv when Ir.Func.defines_value (Ir.Func.instr f v) -> (
                let c = st.Pgvn.State.class_of.(v) in
                if c <> st.Pgvn.State.initial then
                  match Hashtbl.find_opt repr c with
                  | None -> Hashtbl.replace repr c rv
                  | Some rv' -> if rv <> rv' then ok := false)
            | _ -> ())
          env
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "join blocks get OR predicates" `Quick test_block_predicate_computed;
    Alcotest.test_case "canonical edge order normalizes operators" `Quick
      test_canonical_order_flips_with_operator;
    Alcotest.test_case "loop headers have no predicate" `Quick test_loop_header_has_no_predicate;
    Alcotest.test_case "nested congruent diamonds merge" `Quick test_nested_diamond_predicates;
    Alcotest.test_case "different predicates stay apart" `Quick
      test_different_predicates_stay_apart;
    Alcotest.test_case "dead arms collapse instead of predicate" `Quick
      test_dead_arm_changes_predicate;
    Alcotest.test_case "partial predicates form OR-of-ANDs" `Quick test_partial_predicate_shapes;
    QCheck_alcotest.to_alcotest prop_phipred_soundness;
  ]
