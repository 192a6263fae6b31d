(* The synthetic workload itself: determinism, termination, and the shape
   knobs actually influencing the generated programs. *)

let prop_deterministic =
  QCheck.Test.make ~name:"generation is deterministic in the seed" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let a = Workload.Generator.func ~seed ~name:"w" () in
      let b = Workload.Generator.func ~seed ~name:"w" () in
      a.Ir.Func.instrs = b.Ir.Func.instrs && a.Ir.Func.blocks = b.Ir.Func.blocks)

let prop_terminates =
  QCheck.Test.make ~name:"generated programs terminate" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"w" () in
      let rng = Util.Prng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 10 do
        let args = Array.init 8 (fun _ -> Util.Prng.range rng (-50) 50) in
        match Ir.Interp.run ~fuel:1_000_000 f args with
        | Ir.Interp.Timeout -> ok := false
        | Ir.Interp.Ret _ | Ir.Interp.Trap -> ()
      done;
      !ok)

let test_loop_knob () =
  let with_loops =
    Workload.Generator.func
      ~profile:{ Workload.Generator.default_profile with loop_weight = 6; stmt_budget = 60 }
      ~seed:5 ~name:"w" ()
  in
  let without =
    Workload.Generator.func
      ~profile:{ Workload.Generator.default_profile with loop_weight = 0; stmt_budget = 60 }
      ~seed:5 ~name:"w" ()
  in
  let nesting f = Analysis.Loops.max_nesting (Analysis.Loops.forest (Analysis.Graph.of_func f)) in
  Alcotest.(check bool) "loops appear when requested" true (nesting with_loops > 0);
  Alcotest.(check int) "no loops when disabled" 0 (nesting without)

let test_suite_shape () =
  let suite = Workload.Suite.all ~scale:0.1 () in
  Alcotest.(check int) "ten benchmarks" 10 (List.length suite);
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      Alcotest.(check bool) (b.Workload.Suite.name ^ " nonempty") true (List.length funcs > 0);
      List.iter (fun f -> ignore (Check.check_exn f)) funcs)
    suite

let test_ladder_shape () =
  let f = Workload.Pathological.ladder_func 10 in
  ignore (Check.check_exn f);
  (* The full algorithm discovers the chained congruence: j = i_n + 1 under
     the guards is congruent to i_1 + 1. *)
  let st = Pgvn.Driver.run Pgvn.Config.full f in
  let s = Pgvn.Driver.summarize st in
  let s_off =
    Pgvn.Driver.summarize
      (Pgvn.Driver.run { Pgvn.Config.full with Pgvn.Config.value_inference = false } f)
  in
  Alcotest.(check bool) "value inference pays off on the ladder" true
    (s.Pgvn.Driver.congruence_classes < s_off.Pgvn.Driver.congruence_classes)

let test_ladder_linear_visits () =
  (* Figure 9: the paper's walks grow with the square of the ladder height,
     each rung's new operand climbing every guard above it (617, 10,145 and
     163,457 value visits at n = 16, 64 and 256 before the walks consulted
     the per-class fact counts; EXPERIMENTS.md keeps those numbers). A walk
     now starts only for a value whose class some edge Eq fact names; a
     rung's new operand has none yet, so the ladder costs at most one visit
     per rung. *)
  List.iter
    (fun n ->
      let st = Pgvn.Driver.run Pgvn.Config.full (Workload.Pathological.ladder_func n) in
      let v = st.Pgvn.State.stats.Pgvn.Run_stats.value_inference_visits in
      if v > n then Alcotest.failf "ladder %d: %d value inference visits > %d" n v n)
    [ 16; 64; 256 ]

let test_suite_determinism () =
  (* Regression: the ten-benchmark corpus is a pure function of its baked-in
     seeds. Generate it twice and compare the printed IR byte for byte —
     any hidden global state or hash-order dependence breaks this. *)
  let dump () =
    Workload.Suite.all ~scale:0.1 ()
    |> List.concat_map (fun ((b : Workload.Suite.benchmark), funcs) ->
           b.Workload.Suite.name :: List.map Ir.Printer.to_string funcs)
    |> String.concat "\n"
  in
  Alcotest.(check string) "byte-identical corpus" (dump ()) (dump ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_deterministic;
    Alcotest.test_case "benchmark corpus is byte-identical across runs" `Quick
      test_suite_determinism;
    QCheck_alcotest.to_alcotest prop_terminates;
    Alcotest.test_case "loop knob controls loop generation" `Quick test_loop_knob;
    Alcotest.test_case "benchmark suite shape" `Quick test_suite_shape;
    Alcotest.test_case "figure-9 ladder exercises inference" `Quick test_ladder_shape;
    Alcotest.test_case "figure-9 ladder visits stay linear" `Quick test_ladder_linear_visits;
  ]
