(* The verifier/linter itself: each checker must catch a deliberately
   corrupted function with the right check id and location, stay silent on
   well-formed IR, and find zero Error-severity diagnostics anywhere in the
   corpus — before optimization, after every pipeline pass (via
   [Pipeline.run_list] with [Options.check]), under every configuration
   preset. *)

let check_id d = d.Check.Diagnostic.check

let fires ?loc id f =
  List.exists
    (fun d ->
      check_id d = id && match loc with None -> true | Some l -> d.Check.Diagnostic.loc = l)
    (Check.run_all ~lint:true f)

let assert_fires ?loc id f =
  if not (fires ?loc id f) then
    Alcotest.failf "expected %s to fire; got: %s" id
      (String.concat "; "
         (List.map Check.Diagnostic.to_string (Check.run_all ~lint:true f)))

let assert_clean f =
  match Check.errors (Check.run_all f) with
  | [] -> ()
  | d :: _ -> Alcotest.failf "unexpected error: %s" (Check.Diagnostic.to_string d)

(* A well-formed diamond: b0 branches on its parameter to b1/b2, which merge
   at b3 in a φ; returns the φ. Returned with the ids the corruptions need. *)
let diamond () =
  let bld = Ir.Builder.create ~name:"diamond" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let b3 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 0 in
  ignore (Ir.Builder.branch bld b0 p ~ift:b1 ~iff:b2);
  let x = Ir.Builder.binop bld b1 Ir.Types.Add p p in
  let e1 = Ir.Builder.jump bld b1 ~dst:b3 in
  let y = Ir.Builder.binop bld b2 Ir.Types.Mul p p in
  let e2 = Ir.Builder.jump bld b2 ~dst:b3 in
  let phi = Ir.Builder.phi bld b3 in
  Ir.Builder.set_phi_arg bld ~phi ~edge:e1 x;
  Ir.Builder.set_phi_arg bld ~phi ~edge:e2 y;
  Ir.Builder.ret bld b3 phi;
  let f = Ir.Builder.finish bld in
  (f, Ir.Builder.final_value bld phi, Ir.Builder.final_value bld y)

let find_phi f =
  let r = ref (-1) in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    if Ir.Func.is_phi (Ir.Func.instr f i) then r := i
  done;
  !r

(* --- deliberate corruptions, each pinned to its check id --- *)

let test_clean_diamond () =
  let f, _, _ = diamond () in
  assert_clean f

let test_phi_arity () =
  let f, phi, _ = diamond () in
  let instrs =
    Array.mapi
      (fun i ins ->
        if i = phi then
          match ins with Ir.Func.Phi args -> Ir.Func.Phi [| args.(0) |] | x -> x
        else ins)
      f.Ir.Func.instrs
  in
  assert_fires ~loc:(Check.Diagnostic.Instr phi) "ssa-phi-arity" { f with Ir.Func.instrs }

let test_phi_arg_not_available () =
  (* The φ argument carried by the b1 edge is defined in b2: available on
     neither path. *)
  let f, phi, y = diamond () in
  let instrs =
    Array.mapi
      (fun i ins ->
        if i = phi then
          match ins with Ir.Func.Phi args -> Ir.Func.Phi [| y; args.(1) |] | x -> x
        else ins)
      f.Ir.Func.instrs
  in
  assert_fires ~loc:(Check.Diagnostic.Instr phi) "ssa-phi-arg-dominance"
    { f with Ir.Func.instrs }

let test_use_not_dominated () =
  (* A value defined in one branch arm, used in the other (the builder can
     express this: values are free-floating until laid out). *)
  let bld = Ir.Builder.create ~name:"bad" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 0 in
  ignore (Ir.Builder.branch bld b0 p ~ift:b1 ~iff:b2);
  let x = Ir.Builder.binop bld b1 Ir.Types.Add p p in
  Ir.Builder.ret bld b1 x;
  Ir.Builder.ret bld b2 x;
  let f = Ir.Builder.finish bld in
  assert_fires "ssa-dominance" f;
  (* The legacy wrapper still raises on it. *)
  match Ssa.Verify.check f with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "Ssa.Verify.check accepted a non-dominating use"

let test_dangling_edge () =
  let f, _, _ = diamond () in
  let edges =
    Array.mapi
      (fun e (ed : Ir.Func.edge) ->
        if e = 0 then { ed with Ir.Func.dst = Ir.Func.num_blocks f + 5 } else ed)
      f.Ir.Func.edges
  in
  assert_fires ~loc:(Check.Diagnostic.Edge 0) "cfg-edge-endpoints" { f with Ir.Func.edges }

let test_edge_mirror_broken () =
  (* Swap the two successor slots of the branch block without updating the
     edge table: both mirror directions must object. *)
  let f, _, _ = diamond () in
  let blocks =
    Array.mapi
      (fun b (blk : Ir.Func.block) ->
        if b = 0 then
          { blk with Ir.Func.succs = [| blk.Ir.Func.succs.(1); blk.Ir.Func.succs.(0) |] }
        else blk)
      f.Ir.Func.blocks
  in
  let f' = { f with Ir.Func.blocks } in
  assert_fires "cfg-edge-src-mirror" f';
  assert_fires "cfg-succ-mirror" f'

let test_single_def_violated () =
  (* Lay the same Add out twice in its block. *)
  let f, _, _ = diamond () in
  let add = ref (-1) in
  Array.iteri
    (fun i ins -> match ins with Ir.Func.Binop (Ir.Types.Add, _, _) -> add := i | _ -> ())
    f.Ir.Func.instrs;
  let b = Ir.Func.block_of_instr f !add in
  let blocks =
    Array.mapi
      (fun bi (blk : Ir.Func.block) ->
        if bi = b then
          { blk with Ir.Func.instrs = Array.append [| !add |] blk.Ir.Func.instrs }
        else blk)
      f.Ir.Func.blocks
  in
  assert_fires ~loc:(Check.Diagnostic.Instr !add) "ssa-single-def" { f with Ir.Func.blocks }

let test_terminator_misplaced () =
  (* Drop the terminator from the end of the entry block (repeat the param
     instead): the block no longer ends in a terminator. *)
  let f, _, _ = diamond () in
  let blk0 = Ir.Func.block f 0 in
  let n = Array.length blk0.Ir.Func.instrs in
  let instrs' = Array.copy blk0.Ir.Func.instrs in
  instrs'.(n - 1) <- instrs'.(0);
  let blocks =
    Array.mapi
      (fun b (blk : Ir.Func.block) ->
        if b = 0 then { blk with Ir.Func.instrs = instrs' } else blk)
      f.Ir.Func.blocks
  in
  assert_fires ~loc:(Check.Diagnostic.Block 0) "cfg-terminator-missing"
    { f with Ir.Func.blocks }

let test_type_clash_param_range () =
  (* Parameter index 7 in a 1-parameter routine. *)
  let bld = Ir.Builder.create ~name:"clash" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 7 in
  Ir.Builder.ret bld b0 p;
  let f = Ir.Builder.finish bld in
  assert_fires "type-param-range" f;
  Alcotest.(check bool) "it is an Error" true (Check.has_errors (Check.run_all f))

let test_type_opaque_arity () =
  let bld = Ir.Builder.create ~name:"arity" ~nparams:2 in
  let b0 = Ir.Builder.add_block bld in
  let a = Ir.Builder.param bld b0 0 in
  let b = Ir.Builder.param bld b0 1 in
  let x = Ir.Builder.opaque ~tag:7 bld b0 [ a ] in
  let y = Ir.Builder.opaque ~tag:7 bld b0 [ a; b ] in
  let s = Ir.Builder.binop bld b0 Ir.Types.Add x y in
  Ir.Builder.ret bld b0 s;
  let f = Ir.Builder.finish bld in
  assert_fires "type-opaque-arity" f;
  (* arity drift is a warning, not an error *)
  assert_clean f

let test_type_switch_case_dead () =
  let bld = Ir.Builder.create ~name:"swdead" ~nparams:2 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let a = Ir.Builder.param bld b0 0 in
  let b = Ir.Builder.param bld b0 1 in
  let c = Ir.Builder.cmp bld b0 Ir.Types.Lt a b in
  ignore (Ir.Builder.switch bld b0 c ~cases:[ (0, b1); (5, b2) ] ~default:b2);
  let k1 = Ir.Builder.const bld b1 1 in
  Ir.Builder.ret bld b1 k1;
  let k2 = Ir.Builder.const bld b2 2 in
  Ir.Builder.ret bld b2 k2;
  let f = Ir.Builder.finish bld in
  assert_fires "type-switch-case-dead" f;
  assert_clean f

(* --- the lint tier --- *)

let test_lint_dead_instr () =
  let f = Helpers.func_of_src "routine f(a) { dead = a * 37; return a; }" in
  assert_fires "lint-dead-instr" f;
  let g = Transform.Dce.run f in
  Alcotest.(check bool) "clean after DCE" false (fires "lint-dead-instr" g)

let test_lint_trivial_phi () =
  (* Both φ slots carry the parameter: defined in the entry, so available on
     both edges — well-formed, but the φ merges nothing. *)
  let f, phi, _ = diamond () in
  let param = ref (-1) in
  Array.iteri
    (fun i ins -> match ins with Ir.Func.Param _ -> param := i | _ -> ())
    f.Ir.Func.instrs;
  let instrs =
    Array.mapi
      (fun i ins ->
        if i = phi then Ir.Func.Phi [| !param; !param |]
        else ins)
      f.Ir.Func.instrs
  in
  let f' = { f with Ir.Func.instrs } in
  assert_clean f';
  assert_fires ~loc:(Check.Diagnostic.Instr phi) "lint-trivial-phi" f'

let test_lint_const_branch_and_unreachable () =
  let f = Helpers.func_of_src "routine f(a) { x = a; if (1) { x = a + 1; } return x; }" in
  (* Lowering keeps the constant condition; GVN's unreachable-code analysis
     is what removes it. *)
  assert_fires "lint-const-branch" f;
  let g = Helpers.optimize Pgvn.Config.full f in
  Alcotest.(check bool) "clean after optimization" false (fires "lint-const-branch" g)

let test_lint_empty_block () =
  let bld = Ir.Builder.create ~name:"fwd" ~nparams:0 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  ignore (Ir.Builder.jump bld b0 ~dst:b1);
  ignore (Ir.Builder.jump bld b1 ~dst:b2);
  let k = Ir.Builder.const bld b2 4 in
  Ir.Builder.ret bld b2 k;
  let f = Ir.Builder.finish bld in
  assert_fires ~loc:(Check.Diagnostic.Block 1) "lint-empty-block" f;
  let g = Transform.Simplify_cfg.fixpoint f in
  Alcotest.(check bool) "clean after simplify-cfg" false (fires "lint-empty-block" g)

let test_lint_critical_edge () =
  (* b0 branches to b1 and b2; b1 falls through to b2: the edge b0→b2 has a
     branching source and a merging destination — critical. *)
  let bld = Ir.Builder.create ~name:"crit" ~nparams:1 in
  let b0 = Ir.Builder.add_block bld in
  let b1 = Ir.Builder.add_block bld in
  let b2 = Ir.Builder.add_block bld in
  let p = Ir.Builder.param bld b0 0 in
  let _, ef = Ir.Builder.branch bld b0 p ~ift:b1 ~iff:b2 in
  let x = Ir.Builder.binop bld b1 Ir.Types.Add p p in
  let e1 = Ir.Builder.jump bld b1 ~dst:b2 in
  let phi = Ir.Builder.phi bld b2 in
  Ir.Builder.set_phi_arg bld ~phi ~edge:ef p;
  Ir.Builder.set_phi_arg bld ~phi ~edge:e1 x;
  Ir.Builder.ret bld b2 phi;
  let f = Ir.Builder.finish bld in
  (* Pin the check id and the location: the diagnostic must sit on the
     b0→b2 edge, not on either block. *)
  let crit = ref (-1) in
  Array.iteri
    (fun e (ed : Ir.Func.edge) ->
      if ed.Ir.Func.src = b0 && ed.Ir.Func.dst = b2 then crit := e)
    f.Ir.Func.edges;
  assert_fires ~loc:(Check.Diagnostic.Edge !crit) "lint-critical-edge" f;
  (* A diamond splits all merges behind dedicated blocks: no critical edge. *)
  let g, _, _ = diamond () in
  Alcotest.(check bool) "diamond has no critical edge" false (fires "lint-critical-edge" g)

(* --- the semantic lint sub-tier (interval-analysis-backed) --- *)

let severity_of id f =
  List.find_map
    (fun d -> if check_id d = id then Some d.Check.Diagnostic.severity else None)
    (Check.run_all ~lint:true f)

let cir_of_src src = Ir.Lower.lower_routine (List.hd (Ir.Parser.parse_program src))
let fires_cir id c = List.exists (fun d -> check_id d = id) (Check.Lint.run_cir c)

let test_lint_div_by_zero () =
  let f = Helpers.func_of_src "routine f(a) { x = 0; return a / x; }" in
  assert_fires "lint-div-by-zero" f;
  Alcotest.(check bool) "bug tier: Warning severity" true
    (severity_of "lint-div-by-zero" f = Some Check.Diagnostic.Warning);
  let g = Helpers.func_of_src "routine g(a) { r = 0; if (a > 0) { r = 10 / a; } return r; }" in
  Alcotest.(check bool) "guarded divide is clean" false (fires "lint-div-by-zero" g)

let test_lint_use_uninit () =
  let pos = cir_of_src "routine f(a) { return x + a; }" in
  Alcotest.(check bool) "never-assigned read fires" true (fires_cir "lint-use-uninit" pos);
  (* Assigned on *some* path: a may-analysis must stay silent (the read is
     only conditionally uninitialized, which the lint does not claim). *)
  let neg = cir_of_src "routine g(a) { if (a > 0) { x = 1; } return x; }" in
  Alcotest.(check bool) "may-assigned read is clean" false (fires_cir "lint-use-uninit" neg);
  let neg2 = cir_of_src "routine h(a) { x = 0; return x + a; }" in
  Alcotest.(check bool) "assigned read is clean" false (fires_cir "lint-use-uninit" neg2)

let test_lint_branch_decided () =
  (* The inner guard is implied by the dominating one: always taken. *)
  let f =
    Helpers.func_of_src
      "routine f(a) { r = 0; if (a > 5) { if (a > 2) { r = 1; } } return r; }"
  in
  assert_fires "lint-branch-decided" f;
  let g = Helpers.func_of_src "routine g(a) { r = 0; if (a > 5) { r = 1; } return r; }" in
  Alcotest.(check bool) "an open guard is clean" false (fires "lint-branch-decided" g)

let test_lint_absint_unreachable () =
  (* Contradictory nested guards: the inner body is structurally reachable
     but the interval semantics proves it never executes. *)
  let f =
    Helpers.func_of_src
      "routine f(a) { r = 0; if (a > 5) { if (a < 3) { r = 9; } } return r; }"
  in
  assert_fires "lint-absint-unreachable" f;
  let g, _, _ = diamond () in
  Alcotest.(check bool) "a live diamond is clean" false (fires "lint-absint-unreachable" g)

let test_lint_contradictory_path () =
  (* A relational contradiction — a < b together with b < a — is invisible
     to one-value interval refinement but the fact closure sees it, so the
     Warning fires (and lint-absint-unreachable does not: exec stays true). *)
  let f =
    Helpers.func_of_src
      "routine f(a, b) { r = 0; if (a < b) { if (b < a) { r = 9; } } return r; }"
  in
  assert_fires "lint-contradictory-path" f;
  Alcotest.(check bool)
    "severity is Warning" true
    (List.exists
       (fun d ->
         check_id d = "lint-contradictory-path"
         && d.Check.Diagnostic.severity = Check.Diagnostic.Warning)
       (Check.run_all ~lint:true f));
  (* A constant contradiction the interval tier already proves dead is
     lint-absint-unreachable's territory: the Warning stays silent. *)
  let g =
    Helpers.func_of_src
      "routine g(a) { r = 0; if (a > 5) { if (a < 3) { r = 9; } } return r; }"
  in
  Alcotest.(check bool) "interval-proven block is not re-flagged" false
    (fires "lint-contradictory-path" g);
  let h = Helpers.func_of_src "routine h(a, b) { r = 0; if (a < b) { r = 1; } return r; }" in
  Alcotest.(check bool) "an open relational guard is clean" false
    (fires "lint-contradictory-path" h)

let test_lint_redundant_branch () =
  (* Transitivity — a <= b and b <= c imply a <= c — needs two facts at
     once, beyond both intervals (lint-branch-decided) and the single-fact
     walk; only the closure decides it. *)
  let f =
    Helpers.func_of_src
      "routine f(a, b, c) { r = 0; if (a <= b) { if (b <= c) { if (a <= c) { r = 1; } } } \
       return r; }"
  in
  assert_fires "lint-redundant-branch" f;
  Alcotest.(check bool) "interval tier alone does not see it" false
    (fires "lint-branch-decided" f);
  let g =
    Helpers.func_of_src
      "routine g(a, b) { r = 0; if (a <= b) { if (b <= a) { r = 1; } } return r; }"
  in
  Alcotest.(check bool) "an undecided guard is clean" false (fires "lint-redundant-branch" g)

let test_lint_dead_store () =
  (* y's only user sits behind a self-contradictory comparison: structural
     liveness keeps it (so lint-dead-instr stays silent), the sparse
     executable-sub-CFG liveness does not. *)
  let f =
    Helpers.func_of_src "routine f(a) { y = a + 1; if (a != a) { return y; } return 0; }"
  in
  let y = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with Ir.Func.Binop (Ir.Types.Add, _, _) -> y := i | _ -> ())
    f.Ir.Func.instrs;
  assert_fires ~loc:(Check.Diagnostic.Instr !y) "lint-dead-store" f;
  Alcotest.(check bool) "dead-instr does not fire on the store" false
    (fires ~loc:(Check.Diagnostic.Instr !y) "lint-dead-instr" f);
  let g = Helpers.func_of_src "routine g(a) { y = a + 1; if (a > 0) { return y; } return 0; }" in
  Alcotest.(check bool) "a reachable use is clean" false (fires "lint-dead-store" g)

let test_lint_werror_clean_everywhere () =
  (* The --Werror contract: nothing above Info anywhere in the hand-written
     corpus (both lint tiers) or the ten-benchmark suite. *)
  let no_warnings name ds =
    match
      List.filter (fun d -> d.Check.Diagnostic.severity <> Check.Diagnostic.Info) ds
    with
    | [] -> ()
    | d :: _ -> Alcotest.failf "%s: %s" name (Check.Diagnostic.to_string d)
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun r -> no_warnings name (Check.Lint.run_cir (Ir.Lower.lower_routine r)))
        (Ir.Parser.parse_program src);
      no_warnings name (Check.Lint.run (Helpers.func_of_src src)))
    Workload.Corpus.all_named;
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter (fun f -> no_warnings b.Workload.Suite.name (Check.Lint.run f)) funcs)
    (Workload.Suite.all ~scale:0.1 ())

(* --- corpus sweeps: zero Error diagnostics anywhere --- *)

let test_corpus_clean_all_presets () =
  List.iter
    (fun (name, src) ->
      let f = Helpers.func_of_src src in
      assert_clean f;
      List.iter
        (fun (cname, config) ->
          match
            let opts =
              Transform.Pipeline.Options.(default |> with_config config |> with_check true)
            in
            Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f
          with
          | r -> assert_clean r.Transform.Pipeline.func
          | exception Transform.Pipeline.Broken_invariant { pass; diagnostics } ->
              Alcotest.failf "%s under %s: pass %s broke %s" name cname pass
                (match diagnostics with
                | d :: _ -> Check.Diagnostic.to_string d
                | [] -> "?"))
        Helpers.all_configs)
    Workload.Corpus.all_named

let test_benchmark_suite_clean () =
  (* The ten-benchmark corpus under the full and pessimistic presets, with
     the verifier after every pass. *)
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          assert_clean f;
          List.iter
            (fun config ->
              match
                let opts =
                  Transform.Pipeline.Options.(
                    default |> with_config config |> with_check true)
                in
                Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ~rounds:1 ()) f
              with
              | r -> assert_clean r.Transform.Pipeline.func
              | exception Transform.Pipeline.Broken_invariant { pass; diagnostics } ->
                  Alcotest.failf "%s: pass %s broke %s" b.Workload.Suite.name pass
                    (match diagnostics with
                    | d :: _ -> Check.Diagnostic.to_string d
                    | [] -> "?"))
            [ Pgvn.Config.full; Pgvn.Config.pessimistic ])
        funcs)
    (Workload.Suite.all ~scale:0.1 ())

let prop_generated_pipeline_checked =
  QCheck.Test.make ~name:"checked pipeline holds invariants on generated programs"
    ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"c" () in
      let r =
        let opts = Transform.Pipeline.Options.(default |> with_check true) in
        Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f
      in
      not (Check.has_errors (Check.run_all r.Transform.Pipeline.func)))

let test_report_order () =
  (* Errors sort before warnings regardless of discovery order. *)
  let ds =
    [
      Check.Diagnostic.warning ~check:"lint-dead-instr" ~loc:(Check.Diagnostic.Instr 1) "w";
      Check.Diagnostic.error ~check:"ssa-dominance" ~loc:(Check.Diagnostic.Instr 9) "e";
      Check.Diagnostic.info ~check:"cfg-critical-edge" ~loc:(Check.Diagnostic.Edge 0) "i";
    ]
  in
  match Check.sort ds with
  | { Check.Diagnostic.severity = Check.Diagnostic.Error; _ }
    :: { Check.Diagnostic.severity = Check.Diagnostic.Warning; _ }
    :: { Check.Diagnostic.severity = Check.Diagnostic.Info; _ } :: [] ->
      ()
  | _ -> Alcotest.fail "sort did not order by severity"

let suite =
  [
    Alcotest.test_case "well-formed diamond is clean" `Quick test_clean_diamond;
    Alcotest.test_case "phi arity mismatch" `Quick test_phi_arity;
    Alcotest.test_case "phi argument not available on its edge" `Quick
      test_phi_arg_not_available;
    Alcotest.test_case "use not dominated by definition" `Quick test_use_not_dominated;
    Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
    Alcotest.test_case "edge mirror broken" `Quick test_edge_mirror_broken;
    Alcotest.test_case "single definition violated" `Quick test_single_def_violated;
    Alcotest.test_case "terminator missing" `Quick test_terminator_misplaced;
    Alcotest.test_case "type clash: parameter range" `Quick test_type_clash_param_range;
    Alcotest.test_case "type: opaque arity drift" `Quick test_type_opaque_arity;
    Alcotest.test_case "type: dead boolean switch case" `Quick test_type_switch_case_dead;
    Alcotest.test_case "lint: dead pure instruction" `Quick test_lint_dead_instr;
    Alcotest.test_case "lint: trivial phi" `Quick test_lint_trivial_phi;
    Alcotest.test_case "lint: constant branch" `Quick test_lint_const_branch_and_unreachable;
    Alcotest.test_case "lint: forwarder block" `Quick test_lint_empty_block;
    Alcotest.test_case "lint: critical edge" `Quick test_lint_critical_edge;
    Alcotest.test_case "lint: guaranteed division by zero" `Quick test_lint_div_by_zero;
    Alcotest.test_case "lint: provably-uninitialized read" `Quick test_lint_use_uninit;
    Alcotest.test_case "lint: branch decided by guards" `Quick test_lint_branch_decided;
    Alcotest.test_case "lint: semantically unreachable block" `Quick
      test_lint_absint_unreachable;
    Alcotest.test_case "lint: dead store (sparse liveness)" `Quick test_lint_dead_store;
    Alcotest.test_case "lint: contradictory path conditions" `Quick
      test_lint_contradictory_path;
    Alcotest.test_case "lint: branch decided by the fact closure" `Quick
      test_lint_redundant_branch;
    Alcotest.test_case "lints stay below --Werror on corpus and benchmarks" `Quick
      test_lint_werror_clean_everywhere;
    Alcotest.test_case "corpus clean under every preset" `Quick test_corpus_clean_all_presets;
    Alcotest.test_case "benchmark suite clean (full, pessimistic)" `Quick
      test_benchmark_suite_clean;
    QCheck_alcotest.to_alcotest prop_generated_pipeline_checked;
    Alcotest.test_case "diagnostics sort by severity" `Quick test_report_order;
  ]
