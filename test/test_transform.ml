(* The transformation passes: each preserves semantics on generated
   programs, and each does its specific job on hand-written cases. *)

let gen_func seed = Workload.Generator.func ~seed ~name:"t" ()

let preserves name pass =
  QCheck.Test.make ~name ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let g = pass f in
      ignore (Ssa.Verify.check g);
      Helpers.equivalent ~seed:(seed + 2) f g)

let prop_dce = preserves "DCE preserves semantics" Transform.Dce.run
let prop_lvn = preserves "LVN preserves semantics" Transform.Lvn.run
let prop_simplify = preserves "CFG simplification preserves semantics" Transform.Simplify_cfg.fixpoint

let prop_apply_all_configs =
  QCheck.Test.make ~name:"GVN rewrite preserves semantics (all configs)" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      List.for_all
        (fun (_, config) ->
          let g = Transform.Apply.optimize ~config f in
          ignore (Ssa.Verify.check g);
          Helpers.equivalent ~seed:(seed + 3) f g)
        Helpers.all_configs)

(* Engine-2 properties: the validator's behavioral engine as a harness for
   the cleanup passes, at volume. *)

let prop_dce_keeps_live_opaques =
  QCheck.Test.make ~name:"DCE keeps live opaque calls (Engine 2)" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let g = Transform.Dce.run f in
      (* Every opaque call feeding a terminator transitively — the IR's
         stand-in for observable side-effecting work — must survive. *)
      let live = Array.make (Ir.Func.num_instrs f) false in
      let rec mark v =
        if not live.(v) then begin
          live.(v) <- true;
          Ir.Func.iter_operands mark (Ir.Func.instr f v)
        end
      in
      Array.iter
        (fun ins -> if Ir.Func.is_terminator ins then Ir.Func.iter_operands mark ins)
        f.Ir.Func.instrs;
      let tags keep h =
        Array.to_list
          (Array.mapi
             (fun i ins ->
               match ins with Ir.Func.Opaque (t, _) when keep i -> Some t | _ -> None)
             h.Ir.Func.instrs)
        |> List.filter_map Fun.id |> List.sort compare
      in
      let rec subset xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
            if x = y then subset xs' ys' else if y < x then subset xs ys' else false
      in
      subset (tags (fun i -> live.(i)) f) (tags (fun _ -> true) g)
      && Validate.Equiv.ok (Validate.Equiv.check ~runs:4 ~pass:"dce" f g))

let prop_simplify_equiv =
  QCheck.Test.make ~name:"simplify-cfg preserves edge-associated phi args (Engine 2)"
    ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let g = Transform.Simplify_cfg.fixpoint f in
      ignore (Ssa.Verify.check g);
      (* Block merging and edge folding re-home φ arguments; any slip shows
         up as a behavioral divergence on the battery. *)
      Validate.Equiv.ok (Validate.Equiv.check ~runs:4 ~pass:"simplify_cfg" f g))

let run_std opts f =
  Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f

let prop_pipeline =
  QCheck.Test.make ~name:"full pipeline preserves semantics" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let r = run_std Transform.Pipeline.Options.default f in
      ignore (Ssa.Verify.check r.Transform.Pipeline.func);
      Helpers.equivalent ~seed:(seed + 4) f r.Transform.Pipeline.func)

let prop_pipeline_monotone_size =
  QCheck.Test.make ~name:"pipeline does not grow programs" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let r = run_std Transform.Pipeline.Options.default f in
      Ir.Func.num_instrs r.Transform.Pipeline.func <= Ir.Func.num_instrs f)

let test_dce_removes_dead () =
  let f =
    Helpers.func_of_src
      "routine f(a) { dead1 = a * 37; dead2 = dead1 + 4; return a; }"
  in
  let g = Transform.Dce.run f in
  Alcotest.(check bool) "dead chain removed" true
    (Ir.Func.num_instrs g < Ir.Func.num_instrs f);
  (* Only param instructions and the return remain (plus entry constants). *)
  Array.iter
    (function
      | Ir.Func.Binop _ -> Alcotest.fail "dead binop survived"
      | _ -> ())
    g.Ir.Func.instrs

let test_lvn_removes_block_redundancy () =
  let f =
    Helpers.func_of_src
      "routine f(a, b) { x = a + b; y = a + b; z = b + a; return x + y + z; }"
  in
  let g = Transform.Lvn.run (Transform.Dce.run f) in
  (* a+b computed once: commutative operands are normalized. *)
  let adds =
    Array.to_list g.Ir.Func.instrs
    |> List.filter (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false)
  in
  (* one for a+b, two for the reductions x+y and (x+y)+z *)
  Alcotest.(check int) "a+b computed once" 3 (List.length adds)

let test_lvn_folds_constants () =
  let f = Helpers.func_of_src "routine f() { return 6 * 7; }" in
  let g = Transform.Lvn.run f in
  let has_const42 =
    Array.exists (function Ir.Func.Const 42 -> true | _ -> false) g.Ir.Func.instrs
  in
  Alcotest.(check bool) "6*7 folded locally" true has_const42

let test_simplify_merges_chain () =
  (* A diamond with constant condition leaves a straight chain after GVN;
     simplify-cfg must merge it down to one block. *)
  let f = Helpers.func_of_src "routine f(a) { x = a + 1; if (1 < 2) x = x + 1; return x; }" in
  let g = Helpers.optimize Pgvn.Config.full f in
  Alcotest.(check int) "single block remains" 1 (Ir.Func.num_blocks g)

let test_apply_drops_unreachable () =
  let f = Helpers.func_of_src "routine f(a) { r = 1; if (2 == 3) { r = f0(a); } return r; }" in
  let g = Helpers.optimize Pgvn.Config.full f in
  Alcotest.(check int) "collapses entirely" 1 (Ir.Func.num_blocks g);
  Alcotest.(check bool) "opaque call gone" true
    (Array.for_all (function Ir.Func.Opaque _ -> false | _ -> true) g.Ir.Func.instrs)

let test_apply_redundancy_elimination () =
  (* The second a+b is replaced by the first (its leader dominates it). *)
  let f =
    Helpers.func_of_src
      "routine f(a, b) { x = a + b; if (a > 0) { y = a + b; return y; } return x; }"
  in
  let g = Helpers.optimize Pgvn.Config.full f in
  let adds =
    Array.to_list g.Ir.Func.instrs
    |> List.filter (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false)
  in
  Alcotest.(check int) "a+b computed once across blocks" 1 (List.length adds)

let test_pipeline_timings_present () =
  let f = gen_func 123 in
  let r = run_std Transform.Pipeline.Options.default f in
  Alcotest.(check bool) "gvn timing recorded" true (r.Transform.Pipeline.gvn_seconds > 0.0);
  Alcotest.(check bool) "gvn < total" true
    (r.Transform.Pipeline.gvn_seconds <= r.Transform.Pipeline.total_seconds);
  Alcotest.(check bool) "several passes timed" true
    (List.length r.Transform.Pipeline.timings > 10)

(* Time accounting must match on the structural [kind] only: a timing
   whose display name merely *starts with* "gvn" (a hypothetical
   "gvn-lite#1" pass) must not be charged to GVN, and a GVN instance under
   any display name must be. *)
let test_kind_seconds_ignores_display_names () =
  let open Transform.Pipeline in
  let timings =
    [
      { pass = "gvn-lite#1"; kind = Dce; seconds = 100.0 };
      { pass = "gvn#1"; kind = Gvn; seconds = 1.0 };
      { pass = "renamed-engine#2"; kind = Gvn; seconds = 2.0 };
      { pass = "dce#1"; kind = Dce; seconds = 40.0 };
    ]
  in
  Alcotest.(check (float 1e-9)) "only kind=Gvn counts" 3.0 (kind_seconds Gvn timings);
  Alcotest.(check (float 1e-9))
    "the '#'-prefix collision lands on its true kind" 140.0 (kind_seconds Dce timings);
  Alcotest.(check (float 1e-9)) "total sums everything" 143.0 (total_seconds_of timings)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dce;
    QCheck_alcotest.to_alcotest prop_lvn;
    QCheck_alcotest.to_alcotest prop_simplify;
    QCheck_alcotest.to_alcotest prop_dce_keeps_live_opaques;
    QCheck_alcotest.to_alcotest prop_simplify_equiv;
    QCheck_alcotest.to_alcotest prop_apply_all_configs;
    QCheck_alcotest.to_alcotest prop_pipeline;
    QCheck_alcotest.to_alcotest prop_pipeline_monotone_size;
    Alcotest.test_case "DCE removes dead code" `Quick test_dce_removes_dead;
    Alcotest.test_case "LVN removes local redundancy" `Quick test_lvn_removes_block_redundancy;
    Alcotest.test_case "LVN folds constants" `Quick test_lvn_folds_constants;
    Alcotest.test_case "simplify-cfg merges chains" `Quick test_simplify_merges_chain;
    Alcotest.test_case "rewrite drops unreachable code" `Quick test_apply_drops_unreachable;
    Alcotest.test_case "dominance-based redundancy elimination" `Quick
      test_apply_redundancy_elimination;
    Alcotest.test_case "pipeline reports timings" `Quick test_pipeline_timings_present;
    Alcotest.test_case "kind_seconds matches on kind, not display name" `Quick
      test_kind_seconds_ignores_display_names;
  ]
