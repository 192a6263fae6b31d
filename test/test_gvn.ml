(* The GVN engine itself: folding, simplification, reassociation,
   unreachable-code analysis, inference, φ-predication, modes, variants,
   and engine-level properties on generated programs. *)

let full = Pgvn.Config.full

let test_constant_folding () =
  Helpers.check_const "2*3+4 folds" (Some 10)
    (Helpers.run_and_return full "routine f() { return 2 * 3 + 4; }");
  Helpers.check_const "division by zero must not fold" None
    (Helpers.run_and_return full "routine f() { return 1 / 0; }");
  Helpers.check_const "shift folds" (Some 40)
    (Helpers.run_and_return full "routine f() { return 10 << 2; }")

let test_algebraic_simplification () =
  Helpers.check_const "x - x = 0" (Some 0)
    (Helpers.run_and_return full "routine f(x) { return x - x; }");
  Helpers.check_const "x + 0 - x = 0" (Some 0)
    (Helpers.run_and_return full "routine f(x) { return (x + 0) - x; }");
  Helpers.check_const "x*0 = 0" (Some 0)
    (Helpers.run_and_return full "routine f(x) { return x * 0; }");
  Helpers.check_const "x ^ x = 0" (Some 0)
    (Helpers.run_and_return full "routine f(x) { return x ^ x; }");
  Helpers.check_const "x==x is 1" (Some 1)
    (Helpers.run_and_return full "routine f(x) { return x == x; }")

let test_reassociation () =
  Helpers.check_const "(a+b)+c == a+(b+c)" (Some 0)
    (Helpers.run_and_return full Workload.Corpus.reassociation_src);
  Helpers.check_const "distribution: 2*(a+b) - (2a+2b) = 0" (Some 0)
    (Helpers.run_and_return full "routine f(a, b) { return (a + b) * 2 - (a * 2 + b * 2); }");
  (* Without reassociation, the same congruence is missed. *)
  Helpers.check_const "disabled reassociation misses it" None
    (Helpers.run_and_return
       { full with Pgvn.Config.reassociation = false }
       "routine f(a,b,c) { return (a + b) + c - (a + (b + c)); }")

let test_propagation_limit () =
  (* A very low limit cancels forward propagation but must stay sound. *)
  let config = { full with Pgvn.Config.propagation_limit = 2 } in
  let f = Helpers.func_of_src "routine f(a,b,c,d) { x = ((a+b)+c)+d; y = a+(b+(c+d)); return x - y; }" in
  let g = Helpers.optimize config f in
  Alcotest.(check bool) "still semantically correct" true (Helpers.equivalent ~seed:5 f g)

let test_unreachable_code () =
  let src = "routine f(x) { r = 1; if (2 > 3) { r = f0(x); } return r; }" in
  let f = Helpers.func_of_src src in
  let st = Pgvn.Driver.run full f in
  let s = Pgvn.Driver.summarize st in
  Alcotest.(check bool) "some block unreachable" true
    (s.Pgvn.Driver.reachable_blocks < Ir.Func.num_blocks f);
  Helpers.check_const "r stays 1" (Some 1) (Helpers.return_constant st f);
  (* With unreachable-code analysis off, the same routine is not folded. *)
  Helpers.check_const "no UCE, no fold" None
    (Helpers.run_and_return { full with Pgvn.Config.unreachable_code = false } src)

let test_uce_through_phi () =
  (* The false arm assigns a different constant, but it is unreachable, so
     the φ collapses. *)
  Helpers.check_const "phi over dead edge collapses" (Some 5)
    (Helpers.run_and_return full "routine f() { r = 5; if (1 == 2) r = 9; return r; }")

let test_value_inference () =
  Helpers.check_const "y == x under guard" (Some 0)
    (Helpers.run_and_return full "routine f(x, y) { if (x == y) { return x - y; } return 0; }");
  (* Figure 6: the two-step inference chain K -> J -> I. *)
  let f = Helpers.func_of_src Workload.Corpus.figure6_src in
  let st = Pgvn.Driver.run full f in
  (* Figure 6's chain K -> J -> I merges classes that stay separate without
     value inference. *)
  let s_on = Pgvn.Driver.summarize st in
  let s_off =
    Pgvn.Driver.summarize
      (Pgvn.Driver.run { full with Pgvn.Config.value_inference = false } f)
  in
  Alcotest.(check bool) "value inference merges classes" true
    (s_on.Pgvn.Driver.congruence_classes < s_off.Pgvn.Driver.congruence_classes)

let test_value_inference_direction () =
  (* The lower-ranked (earlier) definition becomes the representative:
     after `if (late == early)`, uses of late rewrite to early. *)
  let src = "routine f(a, b) { early = f0(a); late = f1(b); if (late == early) { return late - early; } return 0; }" in
  Helpers.check_const "late - early = 0" (Some 0) (Helpers.run_and_return full src)

let test_predicate_inference () =
  Helpers.check_const "Z>5 makes Z<1 false" (Some 0)
    (Helpers.run_and_return full
       "routine f(z) { if (z > 5) { return z < 1; } return 0; }");
  Helpers.check_const "Z>5 makes Z>2 true" (Some 1)
    (Helpers.run_and_return full
       "routine f(z) { if (z > 5) { return z > 2; } return 1; }");
  Helpers.check_const "nested same-pair comparison" (Some 1)
    (Helpers.run_and_return full
       "routine f(a, b) { if (a < b) { return a <= b; } return 1; }");
  (* Inference makes the inner branch's arm unreachable. *)
  let f =
    Helpers.func_of_src
      "routine f(z) { r = 3; if (z > 5) { if (z < 1) { r = f0(z); } } return r; }"
  in
  let st = Pgvn.Driver.run full f in
  Helpers.check_const "r stays 3" (Some 3) (Helpers.return_constant st f);
  let s = Pgvn.Driver.summarize st in
  Alcotest.(check bool) "inner arm unreachable" true (s.Pgvn.Driver.unreachable_values > 0)

let test_phi_predication () =
  (* Two structurally separate diamonds with congruent predicates: the φs
     merge, so p - q = 0. Only φ-predication can see this. *)
  Helpers.check_const "congruent diamonds" (Some 0)
    (Helpers.run_and_return full Workload.Corpus.phi_predication_src);
  Helpers.check_const "without phi-predication: unknown" None
    (Helpers.run_and_return
       { full with Pgvn.Config.phi_predication = false }
       Workload.Corpus.phi_predication_src)

let test_phi_same_args_reduction () =
  Helpers.check_const "phi(x, x) reduces" (Some 0)
    (Helpers.run_and_return full
       "routine f(a, c) { if (c > 0) { x = a + 1; } else { x = a + 1; } return x - (a + 1); }")

let test_cyclic_congruence () =
  Helpers.check_const "lockstep loop variables congruent (optimistic)" (Some 0)
    (Helpers.run_and_return full Workload.Corpus.cyclic_congruence_src);
  Helpers.check_const "balanced cannot" None
    (Helpers.run_and_return Pgvn.Config.balanced Workload.Corpus.cyclic_congruence_src);
  Helpers.check_const "pessimistic cannot" None
    (Helpers.run_and_return Pgvn.Config.pessimistic Workload.Corpus.cyclic_congruence_src)

let test_loop_invariant () =
  (* acc = acc + 0 in a loop: the φ keeps merging congruent values, so acc
     stays congruent to its initial value. *)
  let f = Helpers.func_of_src Workload.Corpus.loop_invariant_src in
  let st = Pgvn.Driver.run full f in
  (* The return must be congruent to the parameter P0 (value of param 1). *)
  let param1 = ref (-1) and retv = ref (-1) in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    match Ir.Func.instr f i with
    | Ir.Func.Param 1 -> param1 := i
    | Ir.Func.Return v -> retv := v
    | _ -> ()
  done;
  Alcotest.(check bool) "return congruent to initial value" true
    (Pgvn.Driver.congruent st !param1 !retv)

let test_figure14 () =
  (* Rüthing–Knoop–Steffen's φ-of-op cases. The paper (§6) notes its own
     algorithm captures neither (a) nor (b) without the op-of-φ
     reassociation extension it leaves as an open question; these tests
     document the same (deliberate) limitation. *)
  Helpers.check_const "figure 14a: not found without op-of-phi extension" None
    (Helpers.run_and_return full Workload.Corpus.figure14a_src);
  Helpers.check_const "figure 14b: not found (like Kildall and RKS)" None
    (Helpers.run_and_return full Workload.Corpus.figure14b_src)

let test_switch_case_inference () =
  (* A switch case edge carries scrutinee = constant: value inference
     applies inside the case (§3 extension to switches). *)
  Helpers.check_const "x known inside its case" (Some 10)
    (Helpers.run_and_return full
       "routine f(x) { switch (x) { case 3: { return x + 7; } } return 10; }");
  (* Constant scrutinee: only the matching case is reachable. *)
  let f =
    Helpers.func_of_src
      "routine f(a) { x = 2; r = 0; switch (x) { case 1: { r = f0(a); } case 2: { r = 5; } \
       default: { r = f1(a); } } return r; }"
  in
  let st = Pgvn.Driver.run full f in
  Helpers.check_const "only case 2 runs" (Some 5) (Helpers.return_constant st f);
  let s = Pgvn.Driver.summarize st in
  Alcotest.(check bool) "other arms unreachable" true (s.Pgvn.Driver.unreachable_values >= 2);
  (* Scrutinee congruent to a case constant via a dominating guard. *)
  Helpers.check_const "guard + switch compose" (Some 9)
    (Helpers.run_and_return full
       "routine f(x) { if (x == 4) { switch (x) { case 4: { return 9; } } return f0(x); } \
        return 9; }")

let test_switch_rewrite () =
  (* The rewriter prunes dead cases and converts single-target switches to
     jumps, preserving semantics. *)
  let f =
    Helpers.func_of_src
      "routine f(a, x) { r = f0(a); switch (x & 1) { case 0: { r = r + 1; } case 5: { r = f1(a); } \
       default: { r = r - 1; } } return r; }"
  in
  let g = Helpers.optimize full f in
  Alcotest.(check bool) "equivalent" true (Helpers.equivalent ~seed:21 f g)

let test_phi_distribution_extension () =
  (* With the §6 op-of-φ extension on, both Figure 14 cases are captured. *)
  Helpers.check_const "figure 14a found with extension" (Some 0)
    (Helpers.run_and_return Pgvn.Config.full_extended Workload.Corpus.figure14a_src);
  Helpers.check_const "figure 14b found with extension" (Some 0)
    (Helpers.run_and_return Pgvn.Config.full_extended Workload.Corpus.figure14b_src);
  (* And routine R still works under the extension. *)
  Helpers.check_const "routine R unaffected" (Some 1)
    (Helpers.run_and_return Pgvn.Config.full_extended Workload.Corpus.routine_r_src)

let test_opaque_congruence () =
  Helpers.check_const "same opaque call, congruent args" (Some 0)
    (Helpers.run_and_return full "routine f(a) { return f0(a + 1) - f0(1 + a); }");
  Helpers.check_const "different opaque tags stay distinct" None
    (Helpers.run_and_return full "routine f(a) { return f0(a) - f1(a); }")

let test_modes_strength_ordering () =
  (* optimistic >= balanced >= pessimistic in constants found, on the whole
     corpus and a sample of generated programs. *)
  let check f =
    let m config = (Pgvn.Driver.summarize (Pgvn.Driver.run config f)).Pgvn.Driver.constant_values in
    let o = m full and b = m Pgvn.Config.balanced and p = m Pgvn.Config.pessimistic in
    Alcotest.(check bool) "optimistic >= balanced" true (o >= b);
    Alcotest.(check bool) "balanced >= pessimistic" true (b >= p)
  in
  List.iter (fun (_, src) -> check (Helpers.func_of_src src)) Workload.Corpus.all_named;
  for seed = 1 to 30 do
    check (Workload.Generator.func ~seed:(seed * 31) ~name:"m" ())
  done

let test_balanced_single_pass () =
  for seed = 1 to 20 do
    let f = Workload.Generator.func ~seed:(seed * 17) ~name:"b" () in
    let st = Pgvn.Driver.run Pgvn.Config.balanced f in
    Alcotest.(check int) "balanced terminates after one pass" 1
      st.Pgvn.State.stats.Pgvn.Run_stats.passes;
    let st = Pgvn.Driver.run Pgvn.Config.pessimistic f in
    Alcotest.(check int) "pessimistic terminates after one pass" 1
      st.Pgvn.State.stats.Pgvn.Run_stats.passes
  done

let test_practical_equals_complete_often () =
  (* The complete variant is at least as strong as the practical one. *)
  for seed = 1 to 25 do
    let f = Workload.Generator.func ~seed:(seed * 13) ~name:"c" () in
    let sp = Pgvn.Driver.summarize (Pgvn.Driver.run full f) in
    let sc =
      Pgvn.Driver.summarize
        (Pgvn.Driver.run { full with Pgvn.Config.variant = Pgvn.Config.Complete } f)
    in
    Alcotest.(check bool) "complete finds >= constants" true
      (sc.Pgvn.Driver.constant_values >= sp.Pgvn.Driver.constant_values);
    Alcotest.(check bool) "complete finds >= unreachable" true
      (sc.Pgvn.Driver.unreachable_values >= sp.Pgvn.Driver.unreachable_values)
  done

let test_sparse_equals_dense () =
  (* Sparse and dense formulations compute identical results. *)
  for seed = 1 to 25 do
    let f = Workload.Generator.func ~seed:(seed * 7) ~name:"d" () in
    let a = Pgvn.Driver.run full f in
    let b = Pgvn.Driver.run Pgvn.Config.dense f in
    for v = 0 to Ir.Func.num_instrs f - 1 do
      if Ir.Func.defines_value (Ir.Func.instr f v) then begin
        Alcotest.(check bool) "same unreachability" (Pgvn.Driver.value_unreachable a v)
          (Pgvn.Driver.value_unreachable b v);
        Alcotest.(check (option int)) "same constants" (Pgvn.Driver.value_constant a v)
          (Pgvn.Driver.value_constant b v)
      end
    done;
    (* and the same partitions *)
    let congruent_pairs st =
      let n = Ir.Func.num_instrs f in
      let pairs = ref 0 in
      for v = 0 to n - 1 do
        for w = v + 1 to n - 1 do
          if
            Ir.Func.defines_value (Ir.Func.instr f v)
            && Ir.Func.defines_value (Ir.Func.instr f w)
            && Pgvn.Driver.congruent st v w
          then incr pairs
        done
      done;
      !pairs
    in
    Alcotest.(check int) "same congruence count" (congruent_pairs a) (congruent_pairs b)
  done

(* Engine-level soundness properties on generated programs. *)

let prop_constants_sound =
  QCheck.Test.make ~name:"claimed constants hold at run time (all configs)" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"p" () in
      let rng = Util.Prng.create (seed + 3) in
      List.for_all
        (fun (_, config) ->
          let st = Pgvn.Driver.run config f in
          let ok = ref true in
          for _ = 1 to 5 do
            let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
            let _, env = Ir.Interp.run_with_env ~fuel:200_000 f args in
            Array.iteri
              (fun v value ->
                match (value, Pgvn.Driver.value_constant st v) with
                | Some rv, Some c when Ir.Func.defines_value (Ir.Func.instr f v) ->
                    if rv <> c then ok := false
                | _ -> ())
              env
          done;
          !ok)
        Helpers.all_configs)

let prop_unreachable_sound =
  QCheck.Test.make ~name:"values claimed unreachable never execute" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"p" () in
      let st = Pgvn.Driver.run full f in
      let rng = Util.Prng.create (seed + 9) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
        let _, env = Ir.Interp.run_with_env ~fuel:200_000 f args in
        Array.iteri
          (fun v value ->
            if value <> None && Ir.Func.defines_value (Ir.Func.instr f v) then
              if Pgvn.Driver.value_unreachable st v then ok := false)
          env
      done;
      !ok)

let prop_congruence_sound_acyclic =
  QCheck.Test.make ~name:"congruent values agree at run time (acyclic)" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let profile = { Workload.Generator.default_profile with loop_weight = 0 } in
      let f = Workload.Generator.func ~profile ~seed ~name:"p" () in
      let st = Pgvn.Driver.run full f in
      let rng = Util.Prng.create (seed + 11) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
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

let prop_unreachable_blocks_consistent =
  QCheck.Test.make ~name:"values in unreachable blocks stay INITIAL" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"ub" () in
      let st = Pgvn.Driver.run full f in
      let ok = ref true in
      for v = 0 to Ir.Func.num_instrs f - 1 do
        if Ir.Func.defines_value (Ir.Func.instr f v) then begin
          let b = Ir.Func.block_of_instr f v in
          if (not (Pgvn.State.block_reachable st b)) && not (Pgvn.Driver.value_unreachable st v)
          then ok := false;
          (* and conversely, reachable blocks leave nothing in INITIAL at
             the fixed point *)
          if Pgvn.State.block_reachable st b && Pgvn.Driver.value_unreachable st v then ok := false
        end
      done;
      (* edge/block reachability is consistent: a block is reachable iff it
         is the entry or has a reachable incoming edge *)
      for b = 0 to Ir.Func.num_blocks f - 1 do
        let has_in = Pgvn.State.reachable_in_edges st b <> [] in
        let expect = b = Ir.Func.entry || has_in in
        if Pgvn.State.block_reachable st b <> expect then ok := false
      done;
      !ok)

let prop_leader_in_class =
  QCheck.Test.make ~name:"class leaders are members (or constants)" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"lc" () in
      let st = Pgvn.Driver.run full f in
      let ok = ref true in
      for v = 0 to Ir.Func.num_instrs f - 1 do
        if Ir.Func.defines_value (Ir.Func.instr f v) && not (Pgvn.Driver.value_unreachable st v)
        then begin
          let c = Pgvn.State.cls st st.Pgvn.State.class_of.(v) in
          match c.Pgvn.State.leader with
          | Pgvn.State.Lvalue l ->
              if st.Pgvn.State.class_of.(l) <> c.Pgvn.State.cid then ok := false
          | Pgvn.State.Lconst _ -> ()
          | Pgvn.State.Lundef -> ok := false
        end
      done;
      !ok)

let prop_termination_passes =
  QCheck.Test.make ~name:"optimistic runs converge in few passes" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"p" () in
      let st = Pgvn.Driver.run full f in
      let loops = Analysis.Loops.forest (Analysis.Graph.of_func f) in
      (* passes bounded by a small constant plus the loop connectedness,
         which loop nesting approximates loosely — generous headroom *)
      st.Pgvn.State.stats.Pgvn.Run_stats.passes <= 8 + (3 * Analysis.Loops.max_nesting loops))

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "algebraic simplification" `Quick test_algebraic_simplification;
    Alcotest.test_case "global reassociation" `Quick test_reassociation;
    Alcotest.test_case "forward-propagation limit" `Quick test_propagation_limit;
    Alcotest.test_case "unreachable code elimination" `Quick test_unreachable_code;
    Alcotest.test_case "UCE collapses phis" `Quick test_uce_through_phi;
    Alcotest.test_case "value inference" `Quick test_value_inference;
    Alcotest.test_case "value inference favours lower ranks" `Quick test_value_inference_direction;
    Alcotest.test_case "predicate inference" `Quick test_predicate_inference;
    Alcotest.test_case "phi-predication" `Quick test_phi_predication;
    Alcotest.test_case "phi all-equal reduction" `Quick test_phi_same_args_reduction;
    Alcotest.test_case "cyclic congruences (optimistic only)" `Quick test_cyclic_congruence;
    Alcotest.test_case "loop-invariant cyclic value" `Quick test_loop_invariant;
    Alcotest.test_case "figure 14 cases" `Quick test_figure14;
    Alcotest.test_case "switch: case-edge inference" `Quick test_switch_case_inference;
    Alcotest.test_case "switch: rewriting" `Quick test_switch_rewrite;
    Alcotest.test_case "phi-distribution extension (figure 14)" `Quick
      test_phi_distribution_extension;
    Alcotest.test_case "opaque calls as uninterpreted functions" `Quick test_opaque_congruence;
    Alcotest.test_case "mode strength ordering" `Quick test_modes_strength_ordering;
    Alcotest.test_case "balanced/pessimistic are single-pass" `Quick test_balanced_single_pass;
    Alcotest.test_case "complete >= practical" `Quick test_practical_equals_complete_often;
    Alcotest.test_case "sparse == dense results" `Quick test_sparse_equals_dense;
    QCheck_alcotest.to_alcotest prop_constants_sound;
    QCheck_alcotest.to_alcotest prop_unreachable_sound;
    QCheck_alcotest.to_alcotest prop_congruence_sound_acyclic;
    QCheck_alcotest.to_alcotest prop_unreachable_blocks_consistent;
    QCheck_alcotest.to_alcotest prop_leader_in_class;
    QCheck_alcotest.to_alcotest prop_termination_passes;
  ]
