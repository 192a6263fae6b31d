(* The transformation passes: each preserves semantics on generated
   programs, and each does its specific job on hand-written cases. *)

let gen_func seed = Workload.Generator.func ~seed ~name:"t" ()

let preserves name pass =
  QCheck.Test.make ~name ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let g = pass f in
      ignore (Check.check_exn g);
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
          ignore (Check.check_exn g);
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
      ignore (Check.check_exn g);
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
      ignore (Check.check_exn r.Transform.Pipeline.func);
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

(* A pass its certifier refuses is undone, not raised: the next pass gets
   the function the refused pass was given, the refusal's diagnostics are
   on the result, and the rest of the list still runs. *)
let test_pipeline_undoes_refused_pass () =
  let module P = Transform.Pipeline in
  let f = Helpers.func_of_src "routine f(a) { dead = a * 37; return a + 1; }" in
  let refusal =
    Check.Diagnostic.error ~check:"test-refusal" ~loc:Check.Diagnostic.Func "refused"
  in
  let refused =
    {
      P.Pass.name = "refused#1";
      kind = P.Dce;
      transform = (fun _ ~name:_ g -> Ok (Transform.Dce.run g, []));
      certifier = Some (fun _ ~name:_ ~before:_ ~after:_ -> [ refusal ]);
    }
  in
  let seen = ref None in
  let probe =
    {
      P.Pass.name = "probe#1";
      kind = P.Analyses;
      transform =
        (fun _ ~name:_ g ->
          seen := Some g;
          Ok (g, []));
      certifier = None;
    }
  in
  let r = P.run_list P.Options.default [ refused; probe; P.Pass.dce ~name:"dce#1" ] f in
  Alcotest.(check bool) "the next pass gets the refused pass's input" true
    (match !seen with Some g -> g == f | None -> false);
  Alcotest.(check (list string)) "every pass ran" [ "refused#1"; "probe#1"; "dce#1" ]
    (List.map (fun t -> t.P.pass) r.P.timings);
  Alcotest.(check bool) "the refusal is on the result" true
    (r.P.refused = [ ("refused#1", [ refusal ]) ]);
  Alcotest.(check bool) "the later DCE removed the dead product" true
    (Ir.Func.num_instrs r.P.func < Ir.Func.num_instrs f)

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

(* ------------------------------------------------------------------ *)
(* Rebuild digests.                                                    *)

(* The routines every rebuilding pass is pinned on: generator routines at
   the default profile and at a 400-statement budget, every shipped
   routine, the ten-benchmark corpus at scale 0.1, guard nests and
   Figure 9 ladders. *)
let rebuild_inputs =
  lazy
    (let gen ?profile seed = Workload.Generator.func ?profile ~seed ~name:"r" () in
     let big = { Workload.Generator.default_profile with stmt_budget = 400 } in
     List.init 200 (fun seed -> gen seed)
     @ List.init 20 (fun seed -> gen ~profile:big seed)
     @ List.concat_map
         (fun (_, src) ->
           List.map
             (fun r -> Ssa.Construct.of_cir (Ir.Lower.lower_routine r))
             (Ir.Parser.parse_program src))
         (Helpers.shipped_sources ())
     @ List.concat_map snd (Workload.Suite.all ~scale:0.1 ())
     @ List.map Workload.Pathological.guard_nest_func [ 10; 100 ]
     @ List.map Workload.Pathological.ladder_func [ 8; 64 ])

(* Per pass, the printed output over every input. [Apply] runs on the GVN
   states of [full] and [pessimistic] and also prints its witnesses; [Dce],
   [Simplify_cfg] and [Gcm] see the input and the function the pipeline
   hands them ([Apply] under [full], then [Dce], then [Simplify_cfg]). *)
let rebuild_texts f =
  let print = Ir.Printer.to_string in
  let apply config =
    let g, ws = Transform.Apply.rebuild_witnessed (Pgvn.Driver.run config f) f in
    (g, print g ^ String.concat "\n" (List.map Validate.Witness.to_string ws) ^ "\n")
  in
  let g, apply_full = apply Pgvn.Config.full in
  let _, apply_pessimistic = apply Pgvn.Config.pessimistic in
  let g_dce = Transform.Dce.run g in
  let g_cfg = Transform.Simplify_cfg.fixpoint g_dce in
  let gcm h = print (Transform.Gcm.apply (Transform.Gcm.plan h)) in
  [
    ("apply full", apply_full);
    ("apply pessimistic", apply_pessimistic);
    ("dce", print (Transform.Dce.run f) ^ print g_dce);
    ("simplify_cfg", print (Transform.Simplify_cfg.fixpoint f) ^ print g_cfg);
    ("lvn", print (Transform.Lvn.run f));
    ("gcm", gcm f ^ gcm g_cfg);
    ("briggs", print (Baselines.Briggs_prepass.run f));
  ]

(* Recorded before the six rebuilding passes shared one copier: a change
   to any pass's block, instruction, edge or φ-argument order, or to
   [Apply]'s witness order, moves its digest. *)
let test_rebuilds_pinned () =
  let expected =
    [
      ("apply full", "741a341085da7075429b6e9da2e734cb");
      ("apply pessimistic", "81b48c8573e29f99a18237aa22243bb8");
      ("dce", "2a43646b347d1378980f3bcf923584ce");
      ("simplify_cfg", "c4c6fc705623d8208e39b70187a86e7f");
      ("lvn", "33c71f1c1e675f1c5098719a7e57ec95");
      ("gcm", "b084052c6a71f25333dfcb662a74186d");
      ("briggs", "fc3b899e62ffa0ab4b1c1ff035ce99e3");
    ]
  in
  let texts = List.map rebuild_texts (Lazy.force rebuild_inputs) in
  let got =
    List.map
      (fun (name, _) ->
        let all = String.concat "" (List.map (List.assoc name) texts) in
        (name, Digest.to_hex (Digest.string all)))
      expected
  in
  Alcotest.(check (list (pair string string))) "rebuild digest per pass" expected got

(* A branch straight into a φ block (a critical edge), a chain to merge,
   a dead value and a trapping division between two constants. *)
let critical_edge_func () =
  let module B = Ir.Builder in
  let bld = B.create ~name:"crit" ~nparams:1 in
  let b0 = B.add_block bld and b1 = B.add_block bld and b2 = B.add_block bld in
  let b3 = B.add_block bld in
  let a = B.param bld b0 0 in
  let one = B.const bld b0 1 and seven = B.const bld b0 7 and zero = B.const bld b0 0 in
  ignore (B.binop bld b0 Ir.Types.Mul a a);
  let c = B.cmp bld b0 Ir.Types.Eq a one in
  let s = B.binop bld b1 Ir.Types.Div seven zero in
  let t = B.binop bld b3 Ir.Types.Add s a in
  let p = B.phi bld b2 in
  let _, ef = B.branch bld b0 c ~ift:b1 ~iff:b2 in
  ignore (B.jump bld b1 ~dst:b3);
  let e32 = B.jump bld b3 ~dst:b2 in
  B.set_phi_arg bld ~phi:p ~edge:ef a;
  B.set_phi_arg bld ~phi:p ~edge:e32 t;
  B.ret bld b2 p;
  B.finish bld

let critical_edge_text () =
  let f = critical_edge_func () in
  let g, ws = Transform.Apply.rebuild_witnessed (Pgvn.Driver.run Pgvn.Config.full f) f in
  List.map Ir.Printer.to_string
    [
      f;
      g;
      Transform.Dce.run f;
      Transform.Simplify_cfg.fixpoint f;
      Transform.Lvn.run f;
      Transform.Gcm.apply (Transform.Gcm.plan f);
      Baselines.Briggs_prepass.run f;
    ]
  @ List.map Validate.Witness.to_string ws
  |> List.map (fun s -> s ^ "--\n")
  |> String.concat ""

(* Recorded with the passes' own copies, before they shared one copier.
   The function has two things no generated routine has: a branch edge
   that carries a φ argument, and two constants first used by one
   trapping division, which [Apply] materializes second operand first. *)
let test_critical_edge_pinned () =
  Alcotest.(check string)
    "rebuild digest" "493eb279d8d0eb3484137c128cfce9f6"
    (Digest.to_hex (Digest.string (critical_edge_text ())))

(* Blocks no edge from the entry reaches, beside an entry holding a dead
   value: b1 with no predecessor (`v3 = const 3; v4 = const 4; return v3`)
   and, in [`Cycle], a loop of its own that reads the entry's parameter.
   [`Guarded] adds an equality-guarded region for Briggs's prepass. The
   RPO lacks these blocks, so every pass must leave them out: a GVN run
   that marked or touched one, or touched a user in one, never converged,
   or kept b1 for the rewrite, whose copy then read v3 before any
   definition, as DCE's, LVN's and Briggs's copies did. *)
let orphan_func shape =
  let module B = Ir.Builder in
  let bld = B.create ~name:"orphan" ~nparams:1 in
  let b0 = B.add_block bld and b1 = B.add_block bld in
  let v0 = B.param bld b0 0 in
  ignore (B.binop bld b0 Ir.Types.Add v0 v0);
  (match shape with
  | `Guarded ->
      let b2 = B.add_block bld and b3 = B.add_block bld in
      ignore (B.branch bld b0 (B.cmp bld b0 Ir.Types.Eq v0 (B.const bld b0 5)) ~ift:b2 ~iff:b3);
      B.ret bld b2 v0;
      B.ret bld b3 v0
  | `Plain | `Cycle -> B.ret bld b0 v0);
  let v3 = B.const bld b1 3 in
  ignore (B.const bld b1 4);
  B.ret bld b1 v3;
  if shape = `Cycle then begin
    let c1 = B.add_block bld and c2 = B.add_block bld and c3 = B.add_block bld in
    let p = B.phi bld c1 in
    let q = B.binop bld c1 Ir.Types.Add p v0 in
    ignore (B.branch bld c1 (B.cmp bld c1 Ir.Types.Lt q v0) ~ift:c2 ~iff:c3);
    B.set_phi_arg bld ~phi:p ~edge:(B.jump bld c2 ~dst:c1) q;
    B.ret bld c3 q
  end;
  B.finish bld

let test_orphan_blocks () =
  let presets =
    ("extended", Pgvn.Config.full_extended)
    :: List.map
         (fun name -> (name, Result.get_ok (Cli.Cli_options.preset_of_string name)))
         Cli.Cli_options.preset_names
  in
  List.iter
    (fun (sname, shape) ->
      let f = orphan_func shape in
      let agree what g =
        let what = sname ^ ": " ^ what in
        let ds = Check.run_all g in
        if Check.has_errors ds then
          Alcotest.failf "%s: %a" what Fmt.(list ~sep:sp Check.Diagnostic.pp) ds;
        List.iter
          (fun x ->
            if not (Ir.Interp.equal_result (Ir.Interp.run f [| x |]) (Ir.Interp.run g [| x |]))
            then Alcotest.failf "%s: output differs on %d" what x)
          [ -3; 0; 5 ]
      in
      agree "input" f;
      List.iter
        (fun (name, config) ->
          List.iter
            (fun (vname, variant) ->
              let config = { config with Pgvn.Config.variant } in
              agree (name ^ "/" ^ vname) (Transform.Apply.rebuild (Pgvn.Driver.run config f) f))
            [ ("practical", Pgvn.Config.Practical); ("complete", Pgvn.Config.Complete) ])
        presets;
      agree "dce" (Transform.Dce.run f);
      agree "lvn" (Transform.Lvn.run f);
      agree "simplify-cfg" (Transform.Simplify_cfg.fixpoint f);
      agree "gcm" (Transform.Gcm.apply (Transform.Gcm.plan f));
      agree "briggs" (Baselines.Briggs_prepass.run f))
    [ ("plain", `Plain); ("guarded", `Guarded); ("cycle", `Cycle) ]

(* A keep-everything copy: every block, every instruction in place, every
   terminator as it is. *)
let copy_all g =
  let c = Ir.Copy.create g in
  Array.iter
    (fun b ->
      Array.iter
        (fun i -> if Ir.Func.defines_value (Ir.Func.instr g i) then Ir.Copy.instr c ~into:b i)
        (Ir.Func.block g b).Ir.Func.instrs)
    (Analysis.Ctx.rpo (Analysis.Ctx.create g) g).Analysis.Rpo.order;
  Ir.Copy.finish c

(* A function the copier built numbers its instructions, edges and
   predecessors in the order the copier creates them, so copying it whole
   gives it back unchanged. *)
let prop_copy_reproduces =
  QCheck.Test.make ~name:"a whole copy of a copier-built function is identical" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      List.for_all
        (fun g ->
          copy_all g = g)
        [
          Transform.Lvn.run f;
          Transform.Apply.rebuild (Pgvn.Driver.run Pgvn.Config.full f) f;
          Transform.Gcm.apply (Transform.Gcm.plan f);
        ])

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
    Alcotest.test_case "pipeline undoes a pass its certifier refuses" `Quick
      test_pipeline_undoes_refused_pass;
    Alcotest.test_case "kind_seconds matches on kind, not display name" `Quick
      test_kind_seconds_ignores_display_names;
    Alcotest.test_case "rebuilding passes are pinned" `Quick test_rebuilds_pinned;
    Alcotest.test_case "blocks the entry does not reach, every pass" `Quick test_orphan_blocks;
    QCheck_alcotest.to_alcotest prop_copy_reproduces;
    Alcotest.test_case "rebuilds keep a critical edge's φ argument" `Quick
      test_critical_edge_pinned;
  ]
