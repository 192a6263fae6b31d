(* Cross-validation of the independently implemented prior algorithms
   against the engine's §2.9 emulation presets, and against each other. *)

let gen_func seed = Workload.Generator.func ~seed ~name:"x" ()

(* Two class arrays describe the same partition of values. *)
let same_partition f p q =
  let n = Ir.Func.num_instrs f in
  let m1 = Hashtbl.create 16 and m2 = Hashtbl.create 16 in
  let ok = ref true in
  for v = 0 to n - 1 do
    if Ir.Func.defines_value (Ir.Func.instr f v) then begin
      (match Hashtbl.find_opt m1 p.(v) with
      | Some w -> if w <> q.(v) then ok := false
      | None -> Hashtbl.replace m1 p.(v) q.(v));
      match Hashtbl.find_opt m2 q.(v) with
      | Some w -> if w <> p.(v) then ok := false
      | None -> Hashtbl.replace m2 q.(v) p.(v)
    end
  done;
  !ok

(* Every congruence in [finer] also holds in [coarser]. *)
let refines f ~coarser ~finer =
  let n = Ir.Func.num_instrs f in
  let m = Hashtbl.create 16 in
  let ok = ref true in
  for v = 0 to n - 1 do
    if Ir.Func.defines_value (Ir.Func.instr f v) then
      match Hashtbl.find_opt m finer.(v) with
      | Some c -> if coarser.(v) <> c then ok := false
      | None -> Hashtbl.replace m finer.(v) coarser.(v)
  done;
  !ok

let engine_partition config f =
  let st = Pgvn.Driver.run config f in
  Array.init (Ir.Func.num_instrs f) (fun v -> st.Pgvn.State.class_of.(v))

let prop_rpo_eq_scc_acyclic =
  QCheck.Test.make ~name:"Simpson RPO == Simpson SCC on acyclic code" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f =
        Workload.Generator.func
          ~profile:{ Workload.Generator.default_profile with loop_weight = 0 }
          ~seed ~name:"x" ()
      in
      same_partition f (Baselines.Simpson.rpo f).Baselines.Simpson.vn
        (Baselines.Simpson.scc f).Baselines.Simpson.vn)

let prop_scc_refines_rpo =
  (* On cyclic code, SCC can miss congruences between independent parallel
     φ-cycles (they hash in separate components), but never finds more. *)
  QCheck.Test.make ~name:"Simpson SCC refines Simpson RPO" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      refines f
        ~coarser:(Baselines.Simpson.rpo f).Baselines.Simpson.vn
        ~finer:(Baselines.Simpson.scc f).Baselines.Simpson.vn)

let prop_rpo_eq_emulation =
  QCheck.Test.make ~name:"Simpson RPO == engine AWZ emulation" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      same_partition f (Baselines.Simpson.rpo f).Baselines.Simpson.vn
        (engine_partition Pgvn.Config.emulate_awz f))

let prop_awz_refined_by_hash =
  QCheck.Test.make ~name:"AWZ partitioning refines the hash-based result" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      refines f
        ~coarser:(Baselines.Simpson.rpo f).Baselines.Simpson.vn
        ~finer:(Baselines.Awz.run f))

let prop_sccp_matches_engine =
  QCheck.Test.make ~name:"independent SCCP == engine exact-SCCP emulation" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let sc = Baselines.Sccp.run f in
      let st = Pgvn.Driver.run Pgvn.Config.emulate_sccp_exact f in
      let ok = ref true in
      for v = 0 to Ir.Func.num_instrs f - 1 do
        if Ir.Func.defines_value (Ir.Func.instr f v) then begin
          let unr1 =
            sc.Baselines.Sccp.value.(v) = Baselines.Sccp.Top
            || not sc.Baselines.Sccp.block_executable.(Ir.Func.block_of_instr f v)
          in
          let c1 =
            match sc.Baselines.Sccp.value.(v) with Baselines.Sccp.Const n -> Some n | _ -> None
          in
          if unr1 <> Pgvn.Driver.value_unreachable st v then ok := false
          else if (not unr1) && c1 <> Pgvn.Driver.value_constant st v then ok := false
        end
      done;
      for e = 0 to Ir.Func.num_edges f - 1 do
        if sc.Baselines.Sccp.edge_executable.(e) <> Pgvn.State.edge_reachable st e then ok := false
      done;
      !ok)

let prop_domhash_refined_by_pessimistic =
  QCheck.Test.make ~name:"dominator-hash GVN refined by engine pessimistic" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let dh = Baselines.Domhash.run f in
      (* Inference can trade congruences away (§2.7), so compare against the
         pessimistic engine with the extra analyses off. *)
      let st =
        Pgvn.Driver.run { Pgvn.Config.basic with Pgvn.Config.mode = Pgvn.Config.Pessimistic } f
      in
      let ok = ref true in
      for v = 0 to Ir.Func.num_instrs f - 1 do
        if Ir.Func.defines_value (Ir.Func.instr f v) then begin
          (* constants found by domhash are found by the engine *)
          (match Baselines.Domhash.constant_of dh v with
          | Some n -> if Pgvn.Driver.value_constant st v <> Some n then ok := false
          | None -> ());
          (* congruences found by domhash are found by the engine *)
          for w = v + 1 to Ir.Func.num_instrs f - 1 do
            if
              Ir.Func.defines_value (Ir.Func.instr f w)
              && Baselines.Domhash.congruent dh v w
              && not (Pgvn.Driver.congruent st v w)
            then ok := false
          done
        end
      done;
      !ok)

let prop_sccp_constants_sound =
  QCheck.Test.make ~name:"SCCP baseline constants hold at run time" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let sc = Baselines.Sccp.run f in
      let rng = Util.Prng.create (seed + 5) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
        let _, env = Ir.Interp.run_with_env ~fuel:200_000 f args in
        Array.iteri
          (fun v value ->
            match (value, sc.Baselines.Sccp.value.(v)) with
            | Some rv, Baselines.Sccp.Const c when Ir.Func.defines_value (Ir.Func.instr f v) ->
                if rv <> c then ok := false
            | _ -> ())
          env
      done;
      !ok)

let prop_prepass_sound =
  QCheck.Test.make ~name:"Briggs pre-pass preserves semantics" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = gen_func seed in
      let g = Baselines.Briggs_prepass.run f in
      ignore (Check.check_exn g);
      Helpers.equivalent ~seed:(seed + 1) f g)

let test_prepass_figure13 () =
  (* The pre-pass strictly improves plain GVN but stays short of unified
     inference on the paper's Figure 13 pattern. *)
  let f = Helpers.func_of_src Workload.Corpus.figure13_src in
  let consts config g =
    (Pgvn.Driver.summarize (Pgvn.Driver.run config g)).Pgvn.Driver.constant_values
  in
  let plain = consts Pgvn.Config.emulate_click f in
  let prepassed = consts Pgvn.Config.emulate_click (Baselines.Briggs_prepass.run f) in
  let unified = consts Pgvn.Config.full f in
  Alcotest.(check bool) "pre-pass helps plain GVN" true (prepassed > plain);
  Alcotest.(check bool) "unified beats the pre-pass" true (unified > prepassed);
  Helpers.check_const "only unified proves the guarded return" (Some 0)
    (let st = Pgvn.Driver.run Pgvn.Config.full f in
     Helpers.return_constant st f)

let test_simpson_passes () =
  (* Acyclic code converges in ~1 effective pass (plus the fixpoint check);
     deep loop nests take more. *)
  let acyclic =
    Workload.Generator.func
      ~profile:{ Workload.Generator.default_profile with loop_weight = 0 }
      ~seed:77 ~name:"a" ()
  in
  let r = Baselines.Simpson.rpo acyclic in
  Alcotest.(check bool) "acyclic converges fast" true (r.Baselines.Simpson.passes <= 2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rpo_eq_scc_acyclic;
    QCheck_alcotest.to_alcotest prop_scc_refines_rpo;
    QCheck_alcotest.to_alcotest prop_rpo_eq_emulation;
    QCheck_alcotest.to_alcotest prop_awz_refined_by_hash;
    QCheck_alcotest.to_alcotest prop_sccp_matches_engine;
    QCheck_alcotest.to_alcotest prop_domhash_refined_by_pessimistic;
    QCheck_alcotest.to_alcotest prop_sccp_constants_sound;
    QCheck_alcotest.to_alcotest prop_prepass_sound;
    Alcotest.test_case "figure 13: prepass < unified" `Quick test_prepass_figure13;
    Alcotest.test_case "Simpson RPO pass counts" `Quick test_simpson_passes;
  ]
