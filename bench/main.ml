(* Regenerates every table and figure of the paper's evaluation (§5) on the
   synthetic benchmark suite, plus the complexity experiment of Figure 9 and
   the related-work experiments of Figures 13/14. Run with no arguments for
   everything, or name sections:

     dune exec bench/main.exe -- table1 table2 fig9 fig10 fig11 fig12 fig13 scalars absint schedule gcm pred parallel validate bechamel

   Absolute times are this machine's, not a 440 MHz PA-8500's; the claims
   being reproduced are the *ratios* and *shapes* (see EXPERIMENTS.md).

   The harness keeps no stopwatch of its own: every measurement is an
   [Obs] span, GVN engine statistics are read back from the [Obs.Metrics]
   registry, and --trace=FILE / --metrics export the shared context. *)

let scale = ref 1.0

(* The harness-wide observability context. Its clock is the only timer in
   this file, and --trace/--metrics dump it on exit. *)
let obs = Obs.create ()

(* --json FILE: machine-readable per-benchmark timings plus arena/TABLE
   statistics and a ladder scaling check, for the perf-regression record
   (BENCH_gvn.json; see EXPERIMENTS.md). *)
let json_file : string option ref = ref None
let json_table2 : (string * float * float * float) list ref = ref []

(* ------------------------------------------------------------------ *)

(* Best-of-[repeats] wall time of [f], measured as an [Obs] span per
   repetition (the span's duration is the stopwatch). *)
let time_min ~name ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let (), dt = Obs.timed obs ~cat:"bench" name (fun () -> f ()) in
    best := min !best dt
  done;
  !best

(* HLO-analog and GVN time for one benchmark under one GVN config. Both
   numbers are views over the pipeline's trace: [total_seconds] is the
   "pipeline" span, [gvn_seconds] the kind-matched GVN pass spans. *)
let pipeline_times config funcs =
  let opts = Transform.Pipeline.Options.(default |> with_config config |> with_obs obs) in
  let passes = Transform.Pipeline.standard_passes () in
  let hlo = ref 0.0 and gvn = ref 0.0 in
  List.iter
    (fun f ->
      let r = Transform.Pipeline.run_list opts passes f in
      hlo := !hlo +. r.Transform.Pipeline.total_seconds;
      gvn := !gvn +. r.Transform.Pipeline.gvn_seconds)
    funcs;
  (!hlo, !gvn)

let gvn_time config funcs =
  time_min ~name:"bench.gvn" ~repeats:3 (fun () ->
      List.iter (fun f -> ignore (Pgvn.Driver.run config f)) funcs)

(* ------------------------------------------------------------------ *)

let table1 suite =
  Fmt.pr "@\n=== Table 1: HLO and GVN time — optimistic / balanced / pessimistic ===@\n";
  let rows = ref [] in
  let tot = Array.make 6 0.0 in
  List.iter
    (fun (b, funcs) ->
      (* HLO totals come from one pipeline run per config; the GVN columns
         are repeated-minimum direct timings (less noise in the ratios). *)
      let ho, _ = pipeline_times Pgvn.Config.full funcs in
      let hb, _ = pipeline_times Pgvn.Config.balanced funcs in
      let hp, _ = pipeline_times Pgvn.Config.pessimistic funcs in
      let go = 2.0 *. gvn_time Pgvn.Config.full funcs in
      let gb = 2.0 *. gvn_time Pgvn.Config.balanced funcs in
      let gp = 2.0 *. gvn_time Pgvn.Config.pessimistic funcs in
      (* the pipeline runs GVN twice (two rounds), hence the factor 2 for
         the share columns *)
      tot.(0) <- tot.(0) +. ho;
      tot.(1) <- tot.(1) +. go;
      tot.(2) <- tot.(2) +. hb;
      tot.(3) <- tot.(3) +. gb;
      tot.(4) <- tot.(4) +. hp;
      tot.(5) <- tot.(5) +. gp;
      rows :=
        [
          b.Workload.Suite.name;
          Stats.Table.ms ho;
          Stats.Table.ms go;
          Stats.Table.pct go ho;
          Stats.Table.ms hb;
          Stats.Table.ms gb;
          Stats.Table.pct gb hb;
          Stats.Table.ratio go gb;
          Stats.Table.ms hp;
          Stats.Table.ms gp;
          Stats.Table.pct gp hp;
          Stats.Table.ratio gb gp;
        ]
        :: !rows)
    suite;
  let rows =
    List.rev
      ([
         "All";
         Stats.Table.ms tot.(0);
         Stats.Table.ms tot.(1);
         Stats.Table.pct tot.(1) tot.(0);
         Stats.Table.ms tot.(2);
         Stats.Table.ms tot.(3);
         Stats.Table.pct tot.(3) tot.(2);
         Stats.Table.ratio tot.(1) tot.(3);
         Stats.Table.ms tot.(4);
         Stats.Table.ms tot.(5);
         Stats.Table.pct tot.(5) tot.(4);
         Stats.Table.ratio tot.(3) tot.(5);
       ]
      :: !rows)
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("HLO(o)", Stats.Table.Right);
        ("GVN(o)", Stats.Table.Right);
        ("C=B/A", Stats.Table.Right);
        ("HLO(b)", Stats.Table.Right);
        ("GVN(b)", Stats.Table.Right);
        ("F=E/D", Stats.Table.Right);
        ("G=B/E", Stats.Table.Right);
        ("HLO(p)", Stats.Table.Right);
        ("GVN(p)", Stats.Table.Right);
        ("J=I/H", Stats.Table.Right);
        ("K=E/I", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "  (times in ms; o/b/p = optimistic/balanced/pessimistic;@\n";
  Fmt.pr "   G = optimistic-vs-balanced GVN speedup, paper reports 1.39-1.90;@\n";
  Fmt.pr "   K = balanced-vs-pessimistic ratio, paper reports ~1.00)@\n"

let table2 suite =
  Fmt.pr "@\n=== Table 2: GVN time — dense / sparse / basic ===@\n";
  let rows = ref [] in
  let tot = Array.make 3 0.0 in
  List.iter
    (fun (b, funcs) ->
      let a = gvn_time Pgvn.Config.dense funcs in
      let s = gvn_time Pgvn.Config.full funcs in
      let c = gvn_time Pgvn.Config.basic funcs in
      json_table2 := (b.Workload.Suite.name, a, s, c) :: !json_table2;
      tot.(0) <- tot.(0) +. a;
      tot.(1) <- tot.(1) +. s;
      tot.(2) <- tot.(2) +. c;
      rows :=
        [
          b.Workload.Suite.name;
          Stats.Table.ms a;
          Stats.Table.ms s;
          Stats.Table.ms c;
          Stats.Table.ratio a s;
          Stats.Table.ratio s c;
        ]
        :: !rows)
    suite;
  let rows =
    List.rev
      ([
         "All";
         Stats.Table.ms tot.(0);
         Stats.Table.ms tot.(1);
         Stats.Table.ms tot.(2);
         Stats.Table.ratio tot.(0) tot.(1);
         Stats.Table.ratio tot.(1) tot.(2);
       ]
      :: !rows)
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("A:Dense", Stats.Table.Right);
        ("B:Sparse", Stats.Table.Right);
        ("C:Basic", Stats.Table.Right);
        ("A/B", Stats.Table.Right);
        ("B/C", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "  (A/B = sparseness speedup, paper reports 1.23-1.57;@\n";
  Fmt.pr "   B/C = cost of reassociation + inference + phi-predication, paper 1.15-1.32)@\n"

let all_funcs suite = List.concat_map snd suite

let figure ~name ~against suite =
  Fmt.pr "@\n=== %s ===@\n" name;
  let cmp =
    Stats.Strength.compare_configs ~config:Pgvn.Config.full ~baseline:against (all_funcs suite)
  in
  Stats.Strength.pp Fmt.stdout cmp

let fig12 suite =
  Fmt.pr "@\n=== Figure 12: optimistic vs balanced value numbering ===@\n";
  let cmp =
    Stats.Strength.compare_configs ~config:Pgvn.Config.full ~baseline:Pgvn.Config.balanced
      (all_funcs suite)
  in
  Stats.Strength.pp Fmt.stdout cmp

let scalars suite =
  Fmt.pr "@\n=== Section 4/5 scalars: passes and inference visits per instruction ===@\n";
  let funcs = all_funcs suite in
  let n = List.length funcs in
  let passes = ref 0 and instrs = ref 0 and vi = ref 0 and pi = ref 0 and pp = ref 0 in
  List.iter
    (fun f ->
      let st = Pgvn.Driver.run Pgvn.Config.full f in
      let s = st.Pgvn.State.stats in
      passes := !passes + s.Pgvn.Run_stats.passes;
      instrs := !instrs + s.Pgvn.Run_stats.instrs_processed;
      vi := !vi + s.Pgvn.Run_stats.value_inference_visits;
      pi := !pi + s.Pgvn.Run_stats.predicate_inference_visits;
      pp := !pp + s.Pgvn.Run_stats.phi_predication_visits)
    funcs;
  Fmt.pr "  routines: %d@\n" n;
  Fmt.pr "  average passes per routine:           %.2f   (paper: 1.98)@\n"
    (float_of_int !passes /. float_of_int n);
  Fmt.pr "  value-inference visits per instr:     %.2f   (paper: 0.91)@\n"
    (float_of_int !vi /. float_of_int !instrs);
  Fmt.pr "  predicate-inference visits per instr: %.2f   (paper: 0.38)@\n"
    (float_of_int !pi /. float_of_int !instrs);
  Fmt.pr "  phi-predication visits per instr:     %.2f   (paper: 0.16)@\n"
    (float_of_int !pp /. float_of_int !instrs)

let fig9 () =
  Fmt.pr "@\n=== Figure 9: value-inference worst case (the paper's O(n^2) ladder) ===@\n";
  let sizes = [ 8; 16; 32; 64; 128 ] in
  let rows =
    List.map
      (fun n ->
        let f = Workload.Pathological.ladder_func n in
        let t =
          time_min ~name:"bench.ladder" ~repeats:5 (fun () ->
              ignore (Pgvn.Driver.run Pgvn.Config.full f))
        in
        let st = Pgvn.Driver.run Pgvn.Config.full f in
        (n, t, st.Pgvn.State.stats.Pgvn.Run_stats.value_inference_visits))
      sizes
  in
  Stats.Table.render
    ~columns:
      [
        ("n", Stats.Table.Right);
        ("gvn ms", Stats.Table.Right);
        ("vi visits", Stats.Table.Right);
        ("visits/n", Stats.Table.Right);
      ]
    ~rows:
      (List.map
         (fun (n, t, v) ->
           [
             string_of_int n;
             Stats.Table.ms t;
             string_of_int v;
             Printf.sprintf "%.1f" (float_of_int v /. float_of_int n);
           ])
         rows)
    Fmt.stdout;
  Fmt.pr "  (the paper's walks climb every rung above each new operand: visits/n@\n";
  Fmt.pr "   grows linearly in n, quadratic total work. A walk here starts only for@\n";
  Fmt.pr "   a value whose class some edge Eq fact names, so visits/n stays at most 1;@\n";
  Fmt.pr "   EXPERIMENTS.md keeps the quadratic numbers)@\n"

let fig13 () =
  Fmt.pr "@\n=== Figure 13: Briggs-Torczon-Cooper pre-pass vs unified inference ===@\n";
  let f = Workload.Corpus.func_of_src Workload.Corpus.figure13_src in
  (* The guarded return's constancy, and the number of constant values
     discovered, under each approach. *)
  let measure config g =
    let st = Pgvn.Driver.run config g in
    let s = Pgvn.Driver.summarize st in
    (* the guarded return is the one whose block has a conditional pred *)
    let guarded = ref None in
    for i = 0 to Ir.Func.num_instrs g - 1 do
      match Ir.Func.instr g i with
      | Ir.Func.Return v when Ir.Func.block_of_instr g i <> Ir.Func.entry ->
          if !guarded = None then guarded := Some (Pgvn.Driver.value_constant st v)
      | _ -> ()
    done;
    (s.Pgvn.Driver.constant_values, Option.join !guarded)
  in
  let pp_c ppf = function None -> Fmt.string ppf "non-constant" | Some c -> Fmt.pf ppf "const %d" c in
  let c0, r0 = measure Pgvn.Config.emulate_click f in
  let c1, r1 = measure Pgvn.Config.emulate_click (Baselines.Briggs_prepass.run f) in
  let c2, r2 = measure Pgvn.Config.full f in
  Fmt.pr "  F13: `if (K == 0) { i = f0(K)-f0(0); j = f0(L)-f0(0); return i+j; }` with L = K+0@\n";
  Fmt.pr "    plain GVN (Click emulation):  %2d constants, guarded return %a@\n" c0 pp_c r0;
  Fmt.pr "    Briggs pre-pass + plain GVN:  %2d constants, guarded return %a  (i=0 found, j missed)@\n"
    c1 pp_c r1;
  Fmt.pr "    unified predicated GVN:       %2d constants, guarded return %a  (both found)@\n" c2
    pp_c r2

(* Ablation: the contribution of each unified analysis, in strength (total
   constants / unreachable values / classes over the suite) and GVN time.
   These are the design choices DESIGN.md calls out. *)
let ablation suite =
  Fmt.pr "@\n=== Ablation: per-analysis contribution (whole suite totals) ===@\n";
  let funcs = all_funcs suite in
  let variants =
    [
      ("full", Pgvn.Config.full);
      ("- value inference", { Pgvn.Config.full with value_inference = false });
      ("- predicate inference", { Pgvn.Config.full with predicate_inference = false });
      ("- phi-predication", { Pgvn.Config.full with phi_predication = false });
      ("- reassociation", { Pgvn.Config.full with reassociation = false });
      ("- unreachable code", { Pgvn.Config.full with unreachable_code = false });
      ("- algebraic simpl.", { Pgvn.Config.full with algebraic_simplification = false });
      ("+ phi-distribution", Pgvn.Config.full_extended);
      ("basic (all four off)", Pgvn.Config.basic);
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let consts = ref 0 and unreach = ref 0 and classes = ref 0 in
        List.iter
          (fun f ->
            let s = Pgvn.Driver.summarize (Pgvn.Driver.run config f) in
            consts := !consts + s.Pgvn.Driver.constant_values;
            unreach := !unreach + s.Pgvn.Driver.unreachable_values;
            classes := !classes + s.Pgvn.Driver.congruence_classes)
          funcs;
        let t = gvn_time config funcs in
        [
          name;
          string_of_int !consts;
          string_of_int !unreach;
          string_of_int !classes;
          Stats.Table.ms t;
        ])
      variants
  in
  Stats.Table.render
    ~columns:
      [
        ("configuration", Stats.Table.Left);
        ("constants", Stats.Table.Right);
        ("unreachable", Stats.Table.Right);
        ("classes", Stats.Table.Right);
        ("gvn ms", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "  (more constants/unreachable and fewer classes = stronger)@\n"

let bechamel_section () =
  Fmt.pr "@\n=== Bechamel micro-benchmarks (one per table) ===@\n";
  let open Bechamel in
  let r = Workload.Corpus.func_of_src Workload.Corpus.routine_r_src in
  let big = Workload.Generator.func ~seed:4242 ~name:"bench_big"
      ~profile:{ Workload.Generator.default_profile with stmt_budget = 120 } () in
  let mk name config f = Test.make ~name (Staged.stage (fun () -> ignore (Pgvn.Driver.run config f))) in
  let tests =
    [
      (* Table 1's contrast: the three value-numbering modes. *)
      mk "table1/optimistic" Pgvn.Config.full big;
      mk "table1/balanced" Pgvn.Config.balanced big;
      mk "table1/pessimistic" Pgvn.Config.pessimistic big;
      (* Table 2's contrast: dense vs sparse vs basic. *)
      mk "table2/dense" Pgvn.Config.dense big;
      mk "table2/sparse" Pgvn.Config.full big;
      mk "table2/basic" Pgvn.Config.basic big;
      (* Figure 9's ladder at a fixed size. *)
      mk "fig9/ladder64" Pgvn.Config.full (Workload.Pathological.ladder_func 64);
      (* The running example. *)
      mk "fig1/routine_r" Pgvn.Config.full r;
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~stabilize:true ~quota:(Time.second 0.4) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "  %-24s %10.1f ns/run@\n" name est
          | _ -> Fmt.pr "  %-24s (no estimate)@\n" name)
        analyzed)
    tests

(* Sparse abstract interpretation next to the GVN pass it cross-checks:
   per-benchmark wall clock of the two client analyses and of the static
   cross-checker (states precomputed, so its column is the replay alone),
   with each domain's fact yield — constants proved, defs with at least
   one finite interval bound, blocks proved never-executing, and the total
   claims the cross-checker verified. *)
let absint_section suite =
  Fmt.pr "@\n=== Sparse abstract interpretation: cost and fact yield ===@\n";
  let rows =
    List.map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        let tg = gvn_time Pgvn.Config.full funcs in
        let tc =
          time_min ~name:"bench.const" ~repeats:3 (fun () ->
              List.iter (fun f -> ignore (Absint.Consts.run f)) funcs)
        in
        let tr =
          time_min ~name:"bench.range" ~repeats:3 (fun () ->
              List.iter (fun f -> ignore (Absint.Ranges.run f)) funcs)
        in
        let sts = List.map (fun f -> Pgvn.Driver.run Pgvn.Config.full f) funcs in
        let tx =
          time_min ~name:"bench.crosscheck" ~repeats:3 (fun () ->
              List.iter (fun st -> ignore (Absint.Crosscheck.run st)) sts)
        in
        let consts = ref 0 and bounded = ref 0 and dead = ref 0 and claims = ref 0 in
        List.iter2
          (fun f st ->
            let kc = Absint.Consts.run f and rg = Absint.Ranges.run f in
            Array.iteri
              (fun i d ->
                if Ir.Func.defines_value (Ir.Func.instr f i) then begin
                  (match d with Absint.Konst.Cst _ -> incr consts | _ -> ());
                  match rg.Absint.Ranges.facts.(i) with
                  | Absint.Itv.Itv (lo, hi) when lo <> None || hi <> None -> incr bounded
                  | _ -> ()
                end)
              kc.Absint.Consts.facts;
            Array.iter (fun e -> if not e then incr dead) rg.Absint.Ranges.block_exec;
            let r = Absint.Crosscheck.run st in
            claims :=
              !claims + r.Absint.Crosscheck.branches_checked
              + r.Absint.Crosscheck.inferences_checked
              + r.Absint.Crosscheck.phi_preds_checked
              + r.Absint.Crosscheck.constants_checked)
          funcs sts;
        [
          b.Workload.Suite.name;
          Stats.Table.ms tg;
          Stats.Table.ms tc;
          Stats.Table.ms tr;
          Stats.Table.ms tx;
          string_of_int !consts;
          string_of_int !bounded;
          string_of_int !dead;
          string_of_int !claims;
        ])
      suite
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("GVN ms", Stats.Table.Right);
        ("const ms", Stats.Table.Right);
        ("range ms", Stats.Table.Right);
        ("xcheck ms", Stats.Table.Right);
        ("consts", Stats.Table.Right);
        ("bounded", Stats.Table.Right);
        ("dead blks", Stats.Table.Right);
        ("claims", Stats.Table.Right);
      ]
    ~rows Fmt.stdout

(* Code-motion placement analysis (lib/schedule): per-benchmark wall clock
   of the early/late/best computation, the opportunity yield (hoistable /
   sinkable values, faulting ops pinned for speculation safety), and the
   independent legality checker's verdict on the identity placement —
   which must be zero violations on every benchmark. *)

type sched_stat = {
  s_name : string;
  s_ms : float;
  s_values : int;
  s_pinned : int;
  s_blocked : int;
  s_hoist : int;
  s_sink : int;
}

let schedule_stats_pass suite =
  List.map
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      let t =
        time_min ~name:"bench.schedule" ~repeats:3 (fun () ->
            List.iter (fun f -> ignore (Schedule.Placement.compute f)) funcs)
      in
      let values = ref 0
      and pinned = ref 0
      and blocked = ref 0
      and hoist = ref 0
      and sink = ref 0 in
      List.iter
        (fun f ->
          let s = Schedule.Placement.stats (Schedule.Placement.compute f) in
          values := !values + s.Schedule.Placement.values;
          pinned := !pinned + s.Schedule.Placement.pinned;
          blocked := !blocked + s.Schedule.Placement.speculation_blocked;
          hoist := !hoist + s.Schedule.Placement.hoistable;
          sink := !sink + s.Schedule.Placement.sinkable)
        funcs;
      {
        s_name = b.Workload.Suite.name;
        s_ms = t;
        s_values = !values;
        s_pinned = !pinned;
        s_blocked = !blocked;
        s_hoist = !hoist;
        s_sink = !sink;
      })
    suite

let schedule_section suite =
  Fmt.pr "@\n=== Code-motion placement analysis: cost and opportunity yield ===@\n";
  let stats = schedule_stats_pass suite in
  let rows =
    List.map2
      (fun s (_, funcs) ->
        let violations =
          List.fold_left
            (fun acc f -> acc + List.length (Check.errors (Check.Schedule.run f)))
            0 funcs
        in
        [
          s.s_name;
          Stats.Table.ms s.s_ms;
          string_of_int s.s_values;
          string_of_int s.s_hoist;
          string_of_int s.s_sink;
          string_of_int s.s_blocked;
          string_of_int violations;
        ])
      stats suite
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("sched ms", Stats.Table.Right);
        ("values", Stats.Table.Right);
        ("hoistable", Stats.Table.Right);
        ("sinkable", Stats.Table.Right);
        ("spec-blocked", Stats.Table.Right);
        ("violations", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "  (violations = identity-placement legality errors; must be 0)@\n"

(* Global code motion (lib/transform/gcm): the transform the placement
   analysis feeds. Each routine is optimized by the standard pipeline
   first — GCM runs post-GVN in every real configuration — then the
   certified rebuild runs on the result. Every run is gated by the
   independent legality checker (a refused plan aborts the bench) and the
   rebuild is diffed for observable behavior through Engine 2; the section
   reports the motion yield and the transform's wall clock. *)

type gcm_stat = {
  m_name : string;
  m_ms : float;
  m_values : int;
  m_moved : int;
  m_hoisted : int;
  m_sunk : int;
  m_blocked : int;
}

let gcm_stats_pass suite =
  let opts = Transform.Pipeline.Options.(default |> with_obs obs) in
  let passes = Transform.Pipeline.standard_passes () in
  List.map
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      let optimized =
        List.map
          (fun f -> (Transform.Pipeline.run_list opts passes f).Transform.Pipeline.func)
          funcs
      in
      let gcm f =
        match Transform.Gcm.run f with
        | r -> r
        | exception Transform.Gcm.Rejected { diagnostics } ->
            failwith
              (Printf.sprintf "%s: GCM plan rejected: %s" b.Workload.Suite.name
                 (Check.Diagnostic.to_string (List.hd diagnostics)))
      in
      let t =
        time_min ~name:"bench.gcm" ~repeats:3 (fun () ->
            List.iter (fun f -> ignore (gcm f)) optimized)
      in
      let values = ref 0
      and moved = ref 0
      and hoisted = ref 0
      and sunk = ref 0
      and blocked = ref 0 in
      List.iter
        (fun f ->
          let g, p = gcm f in
          let s = Transform.Gcm.stats p in
          let d = Validate.Equiv.check ~pass:"gcm" f g in
          if not (Validate.Equiv.ok d) then
            failwith
              (Printf.sprintf "%s: GCM rebuild changed observable behavior"
                 b.Workload.Suite.name);
          values := !values + s.Transform.Gcm.values;
          moved := !moved + s.Transform.Gcm.moved;
          hoisted := !hoisted + s.Transform.Gcm.hoisted;
          sunk := !sunk + s.Transform.Gcm.sunk;
          blocked := !blocked + s.Transform.Gcm.speculation_blocked)
        optimized;
      {
        m_name = b.Workload.Suite.name;
        m_ms = t;
        m_values = !values;
        m_moved = !moved;
        m_hoisted = !hoisted;
        m_sunk = !sunk;
        m_blocked = !blocked;
      })
    suite

let gcm_section suite =
  Fmt.pr "@\n=== Global code motion: certified rebuilds on optimized code ===@\n";
  let stats = gcm_stats_pass suite in
  let rows =
    List.map
      (fun s ->
        [
          s.m_name;
          Stats.Table.ms s.m_ms;
          string_of_int s.m_values;
          string_of_int s.m_moved;
          string_of_int s.m_hoisted;
          string_of_int s.m_sunk;
          string_of_int s.m_blocked;
        ])
      stats
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("gcm ms", Stats.Table.Right);
        ("values", Stats.Table.Right);
        ("moved", Stats.Table.Right);
        ("hoisted", Stats.Table.Right);
        ("sunk", Stats.Table.Right);
        ("spec-blocked", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr
    "  (every rebuild checker-certified and Engine-2 diffed; refusals abort the bench)@\n"

(* The predicate implication engine: branch decisions with the multi-fact
   closure fallback on versus off, per benchmark. [decided] counts branches
   the run decided (pruned an arm of); the closure may only add to the
   single-fact baseline, and the claim is that it does so for strictly less
   than a 10% analysis-time premium on the large benchmarks. Baseline and
   pred timings are interleaved within each repeat so machine drift hits
   both columns alike. *)

type pred_stat = {
  pr_name : string;
  pr_base_decided : int;
  pr_pred_decided : int;
  pr_queries : int;
  pr_closure_decided : int;
  pr_base_ms : float;
  pr_pred_ms : float;
}

let pred_stats_pass suite =
  let pred_cfg = { Pgvn.Config.full with Pgvn.Config.pred_closure = true } in
  List.map
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      let run cfg = List.iter (fun f -> ignore (Pgvn.Driver.run cfg f)) funcs in
      let tb = ref infinity and tp = ref infinity in
      for _ = 1 to 5 do
        let (), d1 = Obs.timed obs ~cat:"bench" "bench.pred.base" (fun () -> run Pgvn.Config.full) in
        let (), d2 = Obs.timed obs ~cat:"bench" "bench.pred.on" (fun () -> run pred_cfg) in
        tb := min !tb d1;
        tp := min !tp d2
      done;
      let decided cfg =
        List.fold_left
          (fun acc f ->
            acc + List.length (Pgvn.Driver.decided_branches (Pgvn.Driver.run cfg f)))
          0 funcs
      in
      let queries = ref 0 and closure_dec = ref 0 in
      List.iter
        (fun f ->
          let st = Pgvn.Driver.run pred_cfg f in
          let s = st.Pgvn.State.stats in
          queries := !queries + s.Pgvn.Run_stats.pred_closure_queries;
          closure_dec :=
            !closure_dec + s.Pgvn.Run_stats.pred_decided_true
            + s.Pgvn.Run_stats.pred_decided_false)
        funcs;
      {
        pr_name = b.Workload.Suite.name;
        pr_base_decided = decided Pgvn.Config.full;
        pr_pred_decided = decided pred_cfg;
        pr_queries = !queries;
        pr_closure_decided = !closure_dec;
        pr_base_ms = !tb;
        pr_pred_ms = !tp;
      })
    suite

let pred_section suite =
  Fmt.pr "@\n=== Predicate implication closure: decided branches and cost ===@\n";
  let stats = pred_stats_pass suite in
  let rows =
    List.map
      (fun p ->
        [
          p.pr_name;
          string_of_int p.pr_base_decided;
          string_of_int p.pr_pred_decided;
          Printf.sprintf "+%d" (p.pr_pred_decided - p.pr_base_decided);
          string_of_int p.pr_queries;
          string_of_int p.pr_closure_decided;
          Stats.Table.ms p.pr_base_ms;
          Stats.Table.ms p.pr_pred_ms;
        ])
      stats
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("decided", Stats.Table.Right);
        ("+closure", Stats.Table.Right);
        ("delta", Stats.Table.Right);
        ("queries", Stats.Table.Right);
        ("closure-dec", Stats.Table.Right);
        ("base ms", Stats.Table.Right);
        ("pred ms", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr
    "  (decided = branches the GVN run pruned an arm of; delta = additional branches@\n\
    \   only the multi-fact dominating-conjunction closure could decide)@\n"

(* The parallel service tier: throughput of the domain pool on the
   multi-routine heavy hitters at 1/2/4 domains, and the content-addressed
   cache's hit rate on a repeat-run workload. Speedups are paired-run
   medians (each repeat measures every domain count back to back, the
   ratio is taken within the pair, the median across repeats) — the shape
   claim is the speedup ratio, not this machine's absolute routines/sec.
   On hosts with fewer cores than domains the ratio degrades gracefully;
   the JSON record carries the host's core count so the schema gate only
   enforces the 4-domain floor where 4 cores exist. *)

type par_stat = {
  pb_name : string;
  pb_routines : int;
  pb_rps : (int * float) list; (* domain count -> median routines/sec *)
  pb_speedups : (int * float) list; (* domain count -> median paired speedup *)
  pb_hit_rate : float; (* cache hit rate of the repeat sweep *)
}

let parallel_domain_counts = [ 1; 2; 4 ]
let parallel_heavy = [ "176.gcc"; "253.perlbmk"; "254.gap" ]

let median = function
  | [] -> 0.0
  | l ->
      let s = List.sort compare l in
      List.nth s (List.length s / 2)

let parallel_stats_pass suite =
  let chosen =
    List.filter
      (fun ((b : Workload.Suite.benchmark), _) -> List.mem b.Workload.Suite.name parallel_heavy)
      suite
  in
  List.map
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      let work = Array.of_list funcs in
      let n = Array.length work in
      let pools =
        List.map (fun d -> (d, Par.Pool.create ~domains:d ())) parallel_domain_counts
      in
      let samples =
        List.init 5 (fun _ ->
            List.map
              (fun (d, pool) ->
                let (), t =
                  Obs.timed obs ~cat:"bench" "bench.parallel" (fun () ->
                      ignore
                        (Par.Pool.map pool
                           (fun f -> ignore (Pgvn.Driver.run Pgvn.Config.full f))
                           work))
                in
                (d, t))
              pools)
      in
      List.iter (fun (_, pool) -> Par.Pool.shutdown pool) pools;
      let times d = List.map (List.assoc d) samples in
      let rps =
        List.map
          (fun d -> (d, float_of_int n /. max epsilon_float (median (times d))))
          parallel_domain_counts
      in
      let speedups =
        List.map
          (fun d -> (d, median (List.map (fun s -> List.assoc 1 s /. List.assoc d s) samples)))
          parallel_domain_counts
      in
      (* Repeat-run cache workload: sweep the benchmark through the
         content-addressed cache twice. The first sweep compiles and
         populates; the second must answer every routine from cache. *)
      let cache = Par.Ccache.create () in
      let sweep () =
        Array.iter
          (fun f ->
            let key = Par.Ccache.key_of f in
            match Par.Ccache.find cache key with
            | Some _ -> ()
            | None ->
                ignore (Pgvn.Driver.run Pgvn.Config.full f);
                Par.Ccache.add cache key "cached")
          work
      in
      sweep ();
      let s1 = Par.Ccache.stats cache in
      sweep ();
      let s2 = Par.Ccache.stats cache in
      let lookups =
        s2.Par.Ccache.hits + s2.Par.Ccache.misses - s1.Par.Ccache.hits - s1.Par.Ccache.misses
      in
      let hit_rate =
        if lookups = 0 then 0.0
        else float_of_int (s2.Par.Ccache.hits - s1.Par.Ccache.hits) /. float_of_int lookups
      in
      {
        pb_name = b.Workload.Suite.name;
        pb_routines = n;
        pb_rps = rps;
        pb_speedups = speedups;
        pb_hit_rate = hit_rate;
      })
    chosen

let parallel_section suite =
  Fmt.pr "@\n=== Parallel service: pool throughput and cache hit rate ===@\n";
  let stats = parallel_stats_pass suite in
  let rows =
    List.map
      (fun p ->
        [
          p.pb_name;
          string_of_int p.pb_routines;
          Printf.sprintf "%.0f" (List.assoc 1 p.pb_rps);
          Printf.sprintf "%.0f" (List.assoc 2 p.pb_rps);
          Printf.sprintf "%.0f" (List.assoc 4 p.pb_rps);
          Printf.sprintf "%.2fx" (List.assoc 2 p.pb_speedups);
          Printf.sprintf "%.2fx" (List.assoc 4 p.pb_speedups);
          Printf.sprintf "%.0f%%" (100. *. p.pb_hit_rate);
        ])
      stats
  in
  Stats.Table.render
    ~columns:
      [
        ("Benchmark", Stats.Table.Left);
        ("routines", Stats.Table.Right);
        ("rps@1", Stats.Table.Right);
        ("rps@2", Stats.Table.Right);
        ("rps@4", Stats.Table.Right);
        ("speedup@2", Stats.Table.Right);
        ("speedup@4", Stats.Table.Right);
        ("repeat hits", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "  (%d core(s) recommended on this host; speedups are paired-run medians)@\n"
    (Domain.recommended_domain_count ())

(* Translation-validation overhead: run the pipeline under full validation
   and report, per pass kind, what the validator adds on top of the pass
   itself (witness audit against the oracle for GVN; interpreter diffing
   for every rewriting pass), plus the certification totals. *)
let validate_section suite =
  Fmt.pr "@\n=== Translation validation: per-pass overhead (whole suite) ===@\n";
  let funcs = all_funcs suite in
  (* Both tables are keyed by the structural [pass_kind] — never by
     splitting display names (a pass called "gvn-lite#1" must not be
     charged to GVN). Validation records carry only the display name, so
     they are mapped back to a kind through the run's own timing list,
     which pairs each exact display name with its kind. *)
  let pass_s : (Transform.Pipeline.pass_kind, float) Hashtbl.t = Hashtbl.create 8 in
  let val_s : (Transform.Pipeline.pass_kind, float) Hashtbl.t = Hashtbl.create 8 in
  let bump h k dt =
    Hashtbl.replace h k (dt +. try Hashtbl.find h k with Not_found -> 0.0)
  in
  let opts = Transform.Pipeline.Options.(default |> with_validate Validate.All |> with_obs obs) in
  let passes = Transform.Pipeline.standard_passes () in
  let combined = ref Validate.Report.empty in
  List.iter
    (fun f ->
      let r = Transform.Pipeline.run_list opts passes f in
      List.iter
        (fun t -> bump pass_s t.Transform.Pipeline.kind t.Transform.Pipeline.seconds)
        r.Transform.Pipeline.timings;
      let kind_of_pass name =
        List.find_map
          (fun t ->
            if String.equal t.Transform.Pipeline.pass name then
              Some t.Transform.Pipeline.kind
            else None)
          r.Transform.Pipeline.timings
      in
      match r.Transform.Pipeline.validation with
      | None -> ()
      | Some v ->
          if not (Validate.Report.clean v) then
            Fmt.failwith "validate: %s refuted: %a" f.Ir.Func.name
              Fmt.(list ~sep:sp Check.Diagnostic.pp)
              (Validate.Report.errors v);
          List.iter
            (fun p ->
              (match kind_of_pass p.Validate.Report.pass with
              | Some kind -> bump val_s kind p.Validate.Report.seconds
              | None -> ());
              combined := Validate.Report.add !combined p)
            v.Validate.Report.passes)
    funcs;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) pass_s []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (kind, ps) ->
           let vs = try Hashtbl.find val_s kind with Not_found -> 0.0 in
           [
             Transform.Pipeline.pass_kind_name kind;
             Stats.Table.ms ps;
             Stats.Table.ms vs;
             Stats.Table.ratio vs ps;
           ])
  in
  Stats.Table.render
    ~columns:
      [
        ("pass", Stats.Table.Left);
        ("pass ms", Stats.Table.Right);
        ("validate ms", Stats.Table.Right);
        ("overhead x", Stats.Table.Right);
      ]
    ~rows Fmt.stdout;
  Fmt.pr "totals: %a@\n" Validate.Report.pp_summary !combined

(* ------------------------------------------------------------------ *)
(* --json: arena/table statistics and the scaling check, emitted as a
   hand-rolled JSON document (stdlib only; keys are fixed identifiers and
   benchmark names, so no string escaping is needed). *)

type gvn_stat = {
  g_name : string;
  g_routines : int;
  g_passes : int;
  g_instrs : int;
  g_probes : int;
  g_hits : int;
  g_live : int;
  g_interned : int;
  g_arena_hits : int;
  g_max_chain : int;
  g_fired : (string * int) list;  (* rewrite-rule fire counts, by rule name *)
}

(* One full-config run per routine under a per-benchmark [Obs] context;
   the driver publishes its worklist/table/arena statistics into the
   metrics registry, and the JSON record is read back from one snapshot
   (counters sum across routines; [pgvn.arena.max_chain] is a max gauge). *)
let gvn_stats_pass suite =
  List.map
    (fun (b, funcs) ->
      let o = Obs.create () in
      List.iter (fun f -> ignore (Pgvn.Driver.run ~obs:o Pgvn.Config.full f)) funcs;
      let snap = Obs.Metrics.snapshot o.Obs.metrics in
      let c name = try List.assoc name snap.Obs.Metrics.counters with Not_found -> 0 in
      let g name = try List.assoc name snap.Obs.Metrics.gauges with Not_found -> 0.0 in
      let fired =
        let pfx = "rules.fired." in
        let n = String.length pfx in
        List.filter_map
          (fun (k, v) ->
            if String.length k > n && String.sub k 0 n = pfx && v > 0 then
              Some (String.sub k n (String.length k - n), v)
            else None)
          snap.Obs.Metrics.counters
        |> List.sort compare
      in
      {
        g_name = b.Workload.Suite.name;
        g_routines = List.length funcs;
        g_passes = c "pgvn.passes";
        g_instrs = c "pgvn.instrs";
        g_probes = c "pgvn.table_probes";
        g_hits = c "pgvn.table_hits";
        g_live = c "pgvn.arena.live";
        g_interned = c "pgvn.arena.interned";
        g_arena_hits = c "pgvn.arena.hits";
        g_max_chain = int_of_float (g "pgvn.arena.max_chain");
        g_fired = fired;
      })
    suite

(* Figure-9-style complexity guard: value-inference visits on the ladder
   grow linearly, about 2x per doubling of the ladder size (15, 31, 63 at
   n = 16, 32, 64). The bound is 3x per doubling, so quadratic walks (4x)
   fail it before they trip any wall-clock threshold. *)
let scaling_check () =
  let sizes = [ 16; 32; 64 ] in
  let rows =
    List.map
      (fun n ->
        let f = Workload.Pathological.ladder_func n in
        let t =
          time_min ~name:"bench.ladder" ~repeats:3 (fun () ->
              ignore (Pgvn.Driver.run Pgvn.Config.full f))
        in
        let st = Pgvn.Driver.run Pgvn.Config.full f in
        (n, t, st.Pgvn.State.stats.Pgvn.Run_stats.value_inference_visits))
      sizes
  in
  let rec worst acc = function
    | (_, _, v1) :: ((_, _, v2) :: _ as rest) ->
        worst (max acc (float_of_int v2 /. float_of_int (max 1 v1))) rest
    | _ -> acc
  in
  let r = worst 0.0 rows in
  (rows, r, r <= 3.0)

let emit_json path suite =
  let stats = gvn_stats_pass suite in
  let ladder, worst_ratio, quadratic_ok = scaling_check () in
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  let sep i n = if i = n - 1 then "" else "," in
  pr "{\n";
  pr "  \"schema\": \"pgvn-bench/1\",\n";
  pr "  \"scale\": %g,\n" !scale;
  let t2 = List.rev !json_table2 in
  pr "  \"table2\": [\n";
  List.iteri
    (fun i (name, d, s, b) ->
      pr "    {\"benchmark\": \"%s\", \"dense_ms\": %.3f, \"sparse_ms\": %.3f, \"basic_ms\": %.3f}%s\n"
        name (1000. *. d) (1000. *. s) (1000. *. b)
        (sep i (List.length t2)))
    t2;
  pr "  ],\n";
  pr "  \"gvn_stats\": [\n";
  List.iteri
    (fun i g ->
      pr
        "    {\"benchmark\": \"%s\", \"routines\": %d, \"passes\": %d, \"instrs\": %d, \
         \"table_probes\": %d, \"table_hits\": %d, \"arena_live\": %d, \"arena_interned\": %d, \
         \"arena_hits\": %d, \"arena_max_chain\": %d}%s\n"
        g.g_name g.g_routines g.g_passes g.g_instrs g.g_probes g.g_hits g.g_live g.g_interned
        g.g_arena_hits g.g_max_chain
        (sep i (List.length stats)))
    stats;
  pr "  ],\n";
  (* Per-benchmark rewrite-rule activity: which catalog rules fire and how
     often, under the full configuration. [const-fold] counts the engine's
     built-in constant folding, not a catalog rule, so it is excluded from
     the total. *)
  pr "  \"rules\": [\n";
  List.iteri
    (fun i g ->
      let total =
        List.fold_left
          (fun acc (name, n) -> if name = "const-fold" then acc else acc + n)
          0 g.g_fired
      in
      pr "    {\"benchmark\": \"%s\", \"total_fired\": %d, \"fired\": {" g.g_name total;
      List.iteri
        (fun j (name, n) ->
          pr "\"%s\": %d%s" name n (sep j (List.length g.g_fired)))
        g.g_fired;
      pr "}}%s\n" (sep i (List.length stats)))
    stats;
  pr "  ],\n";
  (* Code-motion placement analysis: opportunity yield and analysis time
     per benchmark (the schedule bench section's machine-readable twin). *)
  let sched = schedule_stats_pass suite in
  pr "  \"schedule\": [\n";
  List.iteri
    (fun i s ->
      pr
        "    {\"benchmark\": \"%s\", \"hoistable\": %d, \"sinkable\": %d, \
         \"speculation_blocked\": %d, \"analysis_ms\": %.3f}%s\n"
        s.s_name s.s_hoist s.s_sink s.s_blocked (1000. *. s.s_ms)
        (sep i (List.length sched)))
    sched;
  pr "  ],\n";
  (* Global code motion: certified rebuild yield and cost on optimized code
     (the gcm bench section's machine-readable twin). *)
  let gstats = gcm_stats_pass suite in
  pr "  \"gcm\": [\n";
  List.iteri
    (fun i g ->
      pr
        "    {\"benchmark\": \"%s\", \"values\": %d, \"moved\": %d, \"hoisted\": %d, \
         \"sunk\": %d, \"speculation_blocked\": %d, \"transform_ms\": %.3f}%s\n"
        g.m_name g.m_values g.m_moved g.m_hoisted g.m_sunk g.m_blocked (1000. *. g.m_ms)
        (sep i (List.length gstats)))
    gstats;
  pr "  ],\n";
  (* The predicate implication engine: decided-branch yield and cost of the
     multi-fact closure fallback versus the single-fact baseline. *)
  let pstats = pred_stats_pass suite in
  pr "  \"pred\": [\n";
  List.iteri
    (fun i p ->
      pr
        "    {\"benchmark\": \"%s\", \"baseline_decided\": %d, \"pred_decided\": %d, \
         \"delta\": %d, \"closure_queries\": %d, \"closure_decided\": %d, \
         \"baseline_ms\": %.3f, \"analysis_ms\": %.3f}%s\n"
        p.pr_name p.pr_base_decided p.pr_pred_decided
        (p.pr_pred_decided - p.pr_base_decided)
        p.pr_queries p.pr_closure_decided (1000. *. p.pr_base_ms) (1000. *. p.pr_pred_ms)
        (sep i (List.length pstats)))
    pstats;
  pr "  ],\n";
  (* The parallel service tier: pool throughput on the heavy hitters and
     the cache's repeat-run hit rate. [cores] records the host's
     recommended domain count so the schema gate can scale expectations. *)
  let par = parallel_stats_pass suite in
  pr "  \"parallel\": {\n";
  pr "    \"cores\": %d,\n" (Domain.recommended_domain_count ());
  pr "    \"domain_counts\": [1, 2, 4],\n";
  pr "    \"benchmarks\": [\n";
  List.iteri
    (fun i p ->
      pr
        "      {\"benchmark\": \"%s\", \"routines\": %d, \"rps1\": %.1f, \"rps2\": %.1f, \
         \"rps4\": %.1f, \"speedup2\": %.3f, \"speedup4\": %.3f, \"repeat_hit_rate\": %.4f}%s\n"
        p.pb_name p.pb_routines (List.assoc 1 p.pb_rps) (List.assoc 2 p.pb_rps)
        (List.assoc 4 p.pb_rps) (List.assoc 2 p.pb_speedups) (List.assoc 4 p.pb_speedups)
        p.pb_hit_rate
        (sep i (List.length par)))
    par;
  pr "    ]\n";
  pr "  },\n";
  pr "  \"scaling\": {\n";
  pr "    \"ladder\": [\n";
  List.iteri
    (fun i (n, t, v) ->
      pr "      {\"n\": %d, \"gvn_ms\": %.3f, \"vi_visits\": %d}%s\n" n (1000. *. t) v
        (sep i (List.length ladder)))
    ladder;
  pr "    ],\n";
  pr "    \"worst_visit_ratio_per_doubling\": %.2f,\n" worst_ratio;
  pr "    \"quadratic_ok\": %b\n" quadratic_ok;
  pr "  }\n";
  pr "}\n";
  close_out oc;
  Fmt.pr "@\nWrote %s (quadratic_ok=%b, worst visit ratio per doubling %.2f)@\n" path
    quadratic_ok worst_ratio

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let obs_opts, args = Cli.Cli_options.parse_obs_args args in
  let rec strip_json = function
    | [] -> []
    | "--json" :: file :: rest ->
        json_file := Some file;
        strip_json rest
    | a :: rest -> a :: strip_json rest
  in
  let args = strip_json args in
  let args =
    List.filter
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "scale" ->
            scale := float_of_string (String.sub a (i + 1) (String.length a - i - 1));
            false
        | _ -> true)
      args
  in
  let want s = args = [] || List.mem s args in
  Fmt.pr "Predicated GVN benchmark harness (scale=%.2f)@\n" !scale;
  let suite = lazy (Workload.Suite.all ~scale:!scale ()) in
  if want "table1" then table1 (Lazy.force suite);
  if want "table2" then table2 (Lazy.force suite);
  if want "fig10" then
    figure ~name:"Figure 10: full optimistic vs emulated Click (strongest prior GVN)"
      ~against:Pgvn.Config.emulate_click (Lazy.force suite);
  if want "fig11" then
    figure ~name:"Figure 11: full optimistic vs emulated Wegman-Zadeck SCCP"
      ~against:Pgvn.Config.emulate_sccp (Lazy.force suite);
  if want "fig12" then fig12 (Lazy.force suite);
  if want "scalars" then scalars (Lazy.force suite);
  if want "fig9" then fig9 ();
  if want "fig13" then fig13 ();
  if want "ablation" then ablation (Lazy.force suite);
  if want "absint" then absint_section (Lazy.force suite);
  if want "schedule" then schedule_section (Lazy.force suite);
  if want "gcm" then gcm_section (Lazy.force suite);
  if want "pred" then pred_section (Lazy.force suite);
  if want "parallel" then parallel_section (Lazy.force suite);
  if want "validate" then validate_section (Lazy.force suite);
  if want "bechamel" then bechamel_section ();
  (match !json_file with
  | None -> ()
  | Some path -> emit_json path (Lazy.force suite));
  Cli.Cli_options.finish obs_opts (Some obs)
