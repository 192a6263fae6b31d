(* Regenerates every table and figure of the paper's evaluation (§5) on the
   synthetic benchmark suite, plus the complexity experiment of Figure 9 and
   the related-work experiments of Figures 13/14. Run with no arguments for
   everything, or name sections from [sections] at the bottom of this file
   (any unknown argument prints the usage line, which lists them):

     dune exec bench/main.exe -- table1 fig9 scale=0.3

   Absolute times are this machine's, not a 440 MHz PA-8500's; the claims
   being reproduced are the *ratios* and *shapes* (see EXPERIMENTS.md).

   The harness keeps no stopwatch of its own: every measurement is an
   [Obs] span, GVN engine statistics are read back from the [Obs.Metrics]
   registry, and --trace=FILE / --metrics export the shared context. *)

let scale = ref 1.0

(* The harness-wide observability context. Its clock is the only timer in
   this file, and --trace/--metrics dump it on exit. *)
let obs = Obs.create ()

(* Built on first use, after [scale] is parsed. *)
let suite = lazy (Workload.Suite.all ~scale:!scale ())

module T = Stats.Table

(* ------------------------------------------------------------------ *)
(* A section's result: its text table and, for the sections that feed
   --json FILE (BENCH_gvn.json, the perf-regression record; see
   EXPERIMENTS.md), its top-level fields of that document. *)

type json =
  | Num of string  (** a number, already formatted *)
  | Bool of bool
  | Str of string  (** keys and names are plain identifiers: no escaping *)
  | Arr of json list
  | Obj of (string * json) list

type output = {
  columns : (string * T.align) list;  (** no table when empty *)
  rows : string list list;
  notes : string list;  (** lines printed under the table *)
  json : (string * json) list;
}

let table ?(notes = []) ?(json = []) columns rows = { columns; rows; notes; json }
let lines notes = table ~notes [] []

(* The first column names the row; the rest are right-aligned figures. *)
let named first rest = (first, T.Left) :: List.map (fun h -> (h, T.Right)) rest
let int n = Num (string_of_int n)
let fixed digits x = Num (Printf.sprintf "%.*f" digits x)
let ms_json seconds = fixed 3 (1000. *. seconds)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sum_f f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Records and scalar arrays print on one line; an array of records puts
   one record per line, and an object holding such an array is indented. *)
let rec multiline = function
  | Arr l -> List.exists (function Obj _ -> true | _ -> false) l
  | Obj l -> List.exists (fun (_, v) -> multiline v) l
  | Num _ | Bool _ | Str _ -> false

let rec json_to_buffer b indent v =
  let items opening closing xs item =
    let ml = multiline v in
    let newline n = Buffer.add_char b '\n'; Buffer.add_string b (String.make n ' ') in
    Buffer.add_string b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if ml then "," else ", ");
        if ml then newline (indent + 2);
        item x)
      xs;
    if ml then newline indent;
    Buffer.add_string b closing
  in
  match v with
  | Num s -> Buffer.add_string b s
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> Printf.bprintf b "\"%s\"" s
  | Arr l -> items "[" "]" l (json_to_buffer b (indent + 2))
  | Obj l ->
      items "{" "}" l (fun (k, x) ->
          Printf.bprintf b "\"%s\": " k;
          json_to_buffer b (indent + 2) x)

let json_to_string v =
  let b = Buffer.create 4096 in
  json_to_buffer b 0 v;
  Buffer.contents b

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

(* HLO-analog time for one benchmark under one GVN config: the sum of the
   pipeline's "pipeline" spans. *)
let hlo_time config funcs =
  let opts = Transform.Pipeline.Options.(default |> with_config config |> with_obs obs) in
  let passes = Transform.Pipeline.standard_passes () in
  sum_f
    (fun f -> (Transform.Pipeline.run_list opts passes f).Transform.Pipeline.total_seconds)
    funcs

let gvn_time config funcs =
  time_min ~name:"bench.gvn" ~repeats:3 (fun () ->
      List.iter (fun f -> ignore (Pgvn.Driver.run config f)) funcs)

let all_funcs suite = List.concat_map snd suite

(* ------------------------------------------------------------------ *)

let table1 suite =
  let configs = Pgvn.Config.[ full; balanced; pessimistic ] in
  (* [| HLO(o); GVN(o); HLO(b); GVN(b); HLO(p); GVN(p) |]. HLO totals come
     from one pipeline run per config; the GVN columns are repeated-minimum
     direct timings (less noise in the ratios). The pipeline runs GVN twice
     (two rounds), hence the factor 2 for the share columns. *)
  let times funcs =
    let hlo = List.map (fun c -> hlo_time c funcs) configs in
    let gvn = List.map (fun c -> 2.0 *. gvn_time c funcs) configs in
    Array.of_list (List.concat (List.map2 (fun h g -> [ h; g ]) hlo gvn))
  in
  let per = List.map (fun ((b : Workload.Suite.benchmark), funcs) -> (b.name, times funcs)) suite in
  let total = Array.init 6 (fun i -> sum_f (fun (_, t) -> t.(i)) per) in
  let row (name, t) =
    [ name; T.ms t.(0); T.ms t.(1); T.pct t.(1) t.(0); T.ms t.(2); T.ms t.(3); T.pct t.(3) t.(2);
      T.ratio t.(1) t.(3); T.ms t.(4); T.ms t.(5); T.pct t.(5) t.(4); T.ratio t.(3) t.(5) ]
  in
  table
    (named "Benchmark"
       [ "HLO(o)"; "GVN(o)"; "C=B/A"; "HLO(b)"; "GVN(b)"; "F=E/D"; "G=B/E"; "HLO(p)"; "GVN(p)";
         "J=I/H"; "K=E/I" ])
    (List.map row (per @ [ ("All", total) ]))
    ~notes:
      [
        "  (times in ms; o/b/p = optimistic/balanced/pessimistic;";
        "   G = optimistic-vs-balanced GVN speedup, paper reports 1.39-1.90;";
        "   K = balanced-vs-pessimistic ratio, paper reports ~1.00)";
      ]

(* One full-config run per routine under a private [Obs] context; the
   driver publishes its worklist/table/arena statistics and rule fire
   counts into the metrics registry, and the [gvn_stats] and [rules]
   records are read back from one snapshot (counters sum across routines;
   [pgvn.arena.max_chain] is a max gauge). [const-fold] counts the rule
   engine's built-in constant folding, not a catalog rule, so it is left
   out of [total_fired]. *)
let engine_records name funcs =
  let o = Obs.create () in
  List.iter (fun f -> ignore (Pgvn.Driver.run ~obs:o Pgvn.Config.full f)) funcs;
  let snap = Obs.Metrics.snapshot o.Obs.metrics in
  let c k = int (try List.assoc k snap.Obs.Metrics.counters with Not_found -> 0) in
  let max_chain =
    try List.assoc "pgvn.arena.max_chain" snap.Obs.Metrics.gauges with Not_found -> 0.0
  in
  let fired =
    let prefix = "rules.fired." in
    let n = String.length prefix in
    List.filter_map
      (fun (k, v) ->
        if v > 0 && String.starts_with ~prefix k then
          Some (String.sub k n (String.length k - n), v)
        else None)
      snap.Obs.Metrics.counters
    |> List.sort compare
  in
  ( Obj
      [ ("benchmark", Str name); ("routines", int (List.length funcs));
        ("passes", c "pgvn.passes"); ("instrs", c "pgvn.instrs");
        ("table_probes", c "pgvn.table_probes"); ("table_hits", c "pgvn.table_hits");
        ("arena_live", c "pgvn.arena.live");
        ("arena_interned", c "pgvn.arena.interned"); ("arena_hits", c "pgvn.arena.hits");
        ("arena_max_chain", int (int_of_float max_chain)) ],
    Obj
      [ ("benchmark", Str name);
        ("total_fired", int (sum (fun (r, n) -> if r = "const-fold" then 0 else n) fired));
        ("fired", Obj (List.map (fun (r, n) -> (r, int n)) fired)) ] )

let table2 suite =
  let per =
    List.map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        let t = Array.map (fun c -> gvn_time c funcs) Pgvn.Config.[| dense; full; basic |] in
        (b.name, t, engine_records b.name funcs))
      suite
  in
  let total = Array.init 3 (fun i -> sum_f (fun (_, t, _) -> t.(i)) per) in
  let row name t =
    [ name; T.ms t.(0); T.ms t.(1); T.ms t.(2); T.ratio t.(0) t.(1); T.ratio t.(1) t.(2) ]
  in
  table
    (named "Benchmark" [ "A:Dense"; "B:Sparse"; "C:Basic"; "A/B"; "B/C" ])
    (List.map (fun (name, t, _) -> row name t) per @ [ row "All" total ])
    ~notes:
      [
        "  (A/B = sparseness speedup, paper reports 1.23-1.57;";
        "   B/C = cost of reassociation + inference + phi-predication, paper 1.15-1.32)";
      ]
    ~json:
      [
        ( "table2",
          Arr
            (List.map
               (fun (name, t, _) ->
                 Obj
                   [ ("benchmark", Str name); ("dense_ms", ms_json t.(0));
                     ("sparse_ms", ms_json t.(1)); ("basic_ms", ms_json t.(2)) ])
               per) );
        ("gvn_stats", Arr (List.map (fun (_, _, (g, _)) -> g) per));
        ("rules", Arr (List.map (fun (_, _, (_, r)) -> r) per));
      ]

let figure ~against suite =
  let cmp =
    Stats.Strength.compare_configs ~config:Pgvn.Config.full ~baseline:against (all_funcs suite)
  in
  lines (List.filter (( <> ) "") (String.split_on_char '\n' (Fmt.str "%a" Stats.Strength.pp cmp)))

let scalars suite =
  let funcs = all_funcs suite in
  let stats = List.map (fun f -> (Pgvn.Driver.run Pgvn.Config.full f).Pgvn.State.stats) funcs in
  let ratio n d = float_of_int n /. float_of_int d in
  let instrs = sum (fun s -> s.Pgvn.Run_stats.instrs_processed) stats in
  let per_instr visits = ratio (sum visits stats) instrs in
  lines
    [
      Printf.sprintf "  routines: %d" (List.length funcs);
      Printf.sprintf "  average passes per routine:           %.2f   (paper: 1.98)"
        (ratio (sum (fun s -> s.Pgvn.Run_stats.passes) stats) (List.length funcs));
      Printf.sprintf "  value-inference visits per instr:     %.2f   (paper: 0.91)"
        (per_instr (fun s -> s.Pgvn.Run_stats.value_inference_visits));
      Printf.sprintf "  predicate-inference visits per instr: %.2f   (paper: 0.38)"
        (per_instr (fun s -> s.Pgvn.Run_stats.predicate_inference_visits));
      Printf.sprintf "  phi-predication visits per instr:     %.2f   (paper: 0.16)"
        (per_instr (fun s -> s.Pgvn.Run_stats.phi_predication_visits));
    ]

(* The ladder rows at n = 16/32/64 are also the JSON's complexity guard:
   value-inference visits grow linearly, about 2x per doubling (15, 31, 63).
   The bound is 3x per doubling, so quadratic walks (4x) fail it before
   they trip any wall-clock threshold. *)
let fig9 () =
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
      [ 8; 16; 32; 64; 128 ]
  in
  let ladder = List.filter (fun (n, _, _) -> List.mem n [ 16; 32; 64 ]) rows in
  let rec worst acc = function
    | (_, _, v1) :: ((_, _, v2) :: _ as rest) ->
        worst (max acc (float_of_int v2 /. float_of_int (max 1 v1))) rest
    | _ -> acc
  in
  let worst = worst 0.0 ladder in
  table
    (List.map (fun h -> (h, T.Right)) [ "n"; "gvn ms"; "vi visits"; "visits/n" ])
    (List.map
       (fun (n, t, v) ->
         [ string_of_int n; T.ms t; string_of_int v;
           Printf.sprintf "%.1f" (float_of_int v /. float_of_int n) ])
       rows)
    ~notes:
      [
        "  (the paper's walks climb every rung above each new operand: visits/n";
        "   grows linearly in n, quadratic total work. A walk here starts only for";
        "   a value whose class some edge Eq fact names, so visits/n stays at most 1;";
        "   EXPERIMENTS.md keeps the quadratic numbers)";
      ]
    ~json:
      [
        ( "scaling",
          Obj
            [
              ( "ladder",
                Arr
                  (List.map
                     (fun (n, t, v) ->
                       Obj [ ("n", int n); ("gvn_ms", ms_json t); ("vi_visits", int v) ])
                     ladder) );
              ("worst_visit_ratio_per_doubling", fixed 2 worst);
              ("quadratic_ok", Bool (worst <= 3.0));
            ] );
      ]

let fig13 () =
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
  let pp_c ppf = function
    | None -> Fmt.string ppf "non-constant"
    | Some c -> Fmt.pf ppf "const %d" c
  in
  let c0, r0 = measure Pgvn.Config.emulate_click f in
  let c1, r1 = measure Pgvn.Config.emulate_click (Baselines.Briggs_prepass.run f) in
  let c2, r2 = measure Pgvn.Config.full f in
  lines
    [
      "  F13: `if (K == 0) { i = f0(K)-f0(0); j = f0(L)-f0(0); return i+j; }` with L = K+0";
      Fmt.str "    plain GVN (Click emulation):  %2d constants, guarded return %a" c0 pp_c r0;
      Fmt.str
        "    Briggs pre-pass + plain GVN:  %2d constants, guarded return %a  (i=0 found, j missed)"
        c1 pp_c r1;
      Fmt.str "    unified predicated GVN:       %2d constants, guarded return %a  (both found)" c2
        pp_c r2;
    ]

(* Ablation: the contribution of each unified analysis, in strength (total
   constants / unreachable values / classes over the suite) and GVN time.
   These are the design choices DESIGN.md calls out. *)
let ablation suite =
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
  let row (name, config) =
    let s = List.map (fun f -> Pgvn.Driver.summarize (Pgvn.Driver.run config f)) funcs in
    let total get = string_of_int (sum get s) in
    let t = gvn_time config funcs in
    [ name; total (fun s -> s.Pgvn.Driver.constant_values);
      total (fun s -> s.Pgvn.Driver.unreachable_values);
      total (fun s -> s.Pgvn.Driver.congruence_classes); T.ms t ]
  in
  table
    (named "configuration" [ "constants"; "unreachable"; "classes"; "gvn ms" ])
    (List.map row variants)
    ~notes:[ "  (more constants/unreachable and fewer classes = stronger)" ]

(* Sparse abstract interpretation next to the GVN pass it cross-checks:
   per-benchmark wall clock of the two client analyses and of the static
   cross-checker (states precomputed, so its column is the replay alone),
   with each domain's fact yield — constants proved, defs with at least
   one finite interval bound, blocks proved never-executing, and the total
   claims the cross-checker verified. *)
let absint suite =
  let row ((b : Workload.Suite.benchmark), funcs) =
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
          !claims + r.Absint.Crosscheck.branches_checked + r.Absint.Crosscheck.inferences_checked
          + r.Absint.Crosscheck.phi_preds_checked + r.Absint.Crosscheck.constants_checked)
      funcs sts;
    (b.name :: List.map T.ms [ tg; tc; tr; tx ])
    @ List.map string_of_int [ !consts; !bounded; !dead; !claims ]
  in
  table
    (named "Benchmark"
       [ "GVN ms"; "const ms"; "range ms"; "xcheck ms"; "consts"; "bounded"; "dead blks";
         "claims" ])
    (List.map row suite)

(* Code-motion placement analysis (lib/schedule): per-benchmark wall clock
   of the early/late/best computation, the opportunity yield (hoistable /
   sinkable values, faulting ops pinned for speculation safety), and the
   independent legality checker's verdict on the identity placement —
   which must be zero violations on every benchmark. *)
let schedule suite =
  let per =
    List.map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        let t =
          time_min ~name:"bench.schedule" ~repeats:3 (fun () ->
              List.iter (fun f -> ignore (Schedule.Placement.compute f)) funcs)
        in
        let s = List.map (fun f -> Schedule.Placement.stats (Schedule.Placement.compute f)) funcs in
        let values = sum (fun s -> s.Schedule.Placement.values) s
        and hoist = sum (fun s -> s.Schedule.Placement.hoistable) s
        and sink = sum (fun s -> s.Schedule.Placement.sinkable) s
        and blocked = sum (fun s -> s.Schedule.Placement.speculation_blocked) s
        and violations = sum (fun f -> List.length (Check.errors (Check.Schedule.run f))) funcs in
        ( b.name :: T.ms t :: List.map string_of_int [ values; hoist; sink; blocked; violations ],
          Obj
            [ ("benchmark", Str b.name); ("hoistable", int hoist); ("sinkable", int sink);
              ("speculation_blocked", int blocked); ("analysis_ms", ms_json t) ] ))
      suite
  in
  table
    (named "Benchmark"
       [ "sched ms"; "values"; "hoistable"; "sinkable"; "spec-blocked"; "violations" ])
    (List.map fst per)
    ~notes:[ "  (violations = identity-placement legality errors; must be 0)" ]
    ~json:[ ("schedule", Arr (List.map snd per)) ]

(* Global code motion (lib/transform/gcm): the transform the placement
   analysis feeds. Each routine runs the standard pipeline and then a GCM
   pass with the behaviour diff, as one certified [run_list] — GCM runs
   post-GVN in every real configuration. The legality checker gates the
   plan and the rebuild is diffed for observable behavior through Engine
   2; any refused pass aborts the bench. The section reports the motion
   yield and the GCM pass's wall clock. *)
let gcm suite =
  let opts = Transform.Pipeline.Options.(default |> with_obs obs) in
  let passes = Transform.Pipeline.(standard_passes () @ [ Pass.gcm ~diff:true ~name:"gcm#1" ]) in
  let pp_refused = Fmt.(pair ~sep:(any ": ") string (list ~sep:sp Check.Diagnostic.pp)) in
  let per =
    List.map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        let results = List.map (Transform.Pipeline.run_list opts passes) funcs in
        let stats =
          List.map
            (fun (r : Transform.Pipeline.result) ->
              match r.gcm with
              | Some g when r.refused = [] -> Transform.Gcm.stats g.plan
              | _ ->
                  Fmt.failwith "%s: refused %a" b.name Fmt.(list ~sep:semi pp_refused) r.refused)
            results
        in
        let t = sum_f (fun r -> Transform.Pipeline.(kind_seconds Gcm r.timings)) results in
        let values = sum (fun s -> s.Transform.Gcm.values) stats
        and moved = sum (fun s -> s.Transform.Gcm.moved) stats
        and hoisted = sum (fun s -> s.Transform.Gcm.hoisted) stats
        and sunk = sum (fun s -> s.Transform.Gcm.sunk) stats
        and blocked = sum (fun s -> s.Transform.Gcm.speculation_blocked) stats in
        ( b.name :: T.ms t :: List.map string_of_int [ values; moved; hoisted; sunk; blocked ],
          Obj
            [ ("benchmark", Str b.name); ("values", int values); ("moved", int moved);
              ("hoisted", int hoisted); ("sunk", int sunk); ("speculation_blocked", int blocked);
              ("transform_ms", ms_json t) ] ))
      suite
  in
  table
    (named "Benchmark" [ "gcm ms"; "values"; "moved"; "hoisted"; "sunk"; "spec-blocked" ])
    (List.map fst per)
    ~notes:[ "  (every rebuild checker-certified and Engine-2 diffed; refusals abort the bench)" ]
    ~json:[ ("gcm", Arr (List.map snd per)) ]

(* The predicate implication engine: branch decisions with the multi-fact
   closure fallback on versus off, per benchmark. [decided] counts branches
   the run decided (pruned an arm of); the closure may only add to the
   single-fact baseline, and the claim is that it does so for strictly less
   than a 10% analysis-time premium on the large benchmarks. Baseline and
   pred timings are interleaved within each repeat so machine drift hits
   both columns alike. *)
let pred suite =
  let pred_cfg = { Pgvn.Config.full with Pgvn.Config.pred_closure = true } in
  let per =
    List.map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        let run cfg = List.iter (fun f -> ignore (Pgvn.Driver.run cfg f)) funcs in
        let tb = ref infinity and tp = ref infinity in
        for _ = 1 to 5 do
          let (), d1 =
            Obs.timed obs ~cat:"bench" "bench.pred.base" (fun () -> run Pgvn.Config.full)
          in
          let (), d2 = Obs.timed obs ~cat:"bench" "bench.pred.on" (fun () -> run pred_cfg) in
          tb := min !tb d1;
          tp := min !tp d2
        done;
        let decided sts = sum (fun st -> List.length (Pgvn.Driver.decided_branches st)) sts in
        let on = List.map (Pgvn.Driver.run pred_cfg) funcs in
        let base = decided (List.map (Pgvn.Driver.run Pgvn.Config.full) funcs) in
        let pred = decided on in
        let stats = List.map (fun st -> st.Pgvn.State.stats) on in
        let queries = sum (fun s -> s.Pgvn.Run_stats.pred_closure_queries) stats
        and closure =
          sum
            (fun s -> s.Pgvn.Run_stats.pred_decided_true + s.Pgvn.Run_stats.pred_decided_false)
            stats
        in
        ( [ b.name; string_of_int base; string_of_int pred; Printf.sprintf "+%d" (pred - base);
            string_of_int queries; string_of_int closure; T.ms !tb; T.ms !tp ],
          Obj
            [ ("benchmark", Str b.name); ("baseline_decided", int base); ("pred_decided", int pred);
              ("delta", int (pred - base)); ("closure_queries", int queries);
              ("closure_decided", int closure); ("baseline_ms", ms_json !tb);
              ("analysis_ms", ms_json !tp) ] ))
      suite
  in
  table
    (named "Benchmark"
       [ "decided"; "+closure"; "delta"; "queries"; "closure-dec"; "base ms"; "pred ms" ])
    (List.map fst per)
    ~notes:
      [
        "  (decided = branches the GVN run pruned an arm of; delta = additional branches";
        "   only the multi-fact dominating-conjunction closure could decide)";
      ]
    ~json:[ ("pred", Arr (List.map snd per)) ]

(* The parallel service tier: throughput of the domain pool on the
   multi-routine heavy hitters at 1/2/4 domains, and the content-addressed
   cache's hit rate on a repeat-run workload. Speedups are paired-run
   medians (each repeat measures every domain count back to back, the
   ratio is taken within the pair, the median across repeats) — the shape
   claim is the speedup ratio, not this machine's absolute routines/sec.
   On hosts with fewer cores than domains the ratio degrades gracefully;
   the JSON record carries the host's core count so the schema gate only
   enforces the 4-domain floor where 4 cores exist. *)

let median = function
  | [] -> 0.0
  | l ->
      let s = List.sort compare l in
      List.nth s (List.length s / 2)

let parallel suite =
  let domain_counts = [ 1; 2; 4 ] in
  let heavy = [ "176.gcc"; "253.perlbmk"; "254.gap" ] in
  let per =
    List.filter_map
      (fun ((b : Workload.Suite.benchmark), funcs) ->
        if not (List.mem b.name heavy) then None
        else
          let work = Array.of_list funcs in
          let n = Array.length work in
          let pools = List.map (fun d -> (d, Par.Pool.create ~domains:d ())) domain_counts in
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
          let rps d =
            float_of_int n /. max epsilon_float (median (List.map (List.assoc d) samples))
          in
          let speedup d = median (List.map (fun s -> List.assoc 1 s /. List.assoc d s) samples) in
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
          let lookups = s2.hits + s2.misses - s1.hits - s1.misses in
          let hit_rate =
            if lookups = 0 then 0.0 else float_of_int (s2.hits - s1.hits) /. float_of_int lookups
          in
          Some
            ( [ b.name; string_of_int n; Printf.sprintf "%.0f" (rps 1);
                Printf.sprintf "%.0f" (rps 2); Printf.sprintf "%.0f" (rps 4);
                Printf.sprintf "%.2fx" (speedup 2); Printf.sprintf "%.2fx" (speedup 4);
                Printf.sprintf "%.0f%%" (100. *. hit_rate) ],
              Obj
                [ ("benchmark", Str b.name); ("routines", int n); ("rps1", fixed 1 (rps 1));
                  ("rps2", fixed 1 (rps 2)); ("rps4", fixed 1 (rps 4));
                  ("speedup2", fixed 3 (speedup 2)); ("speedup4", fixed 3 (speedup 4));
                  ("repeat_hit_rate", fixed 4 hit_rate) ] ))
      suite
  in
  let cores = Domain.recommended_domain_count () in
  table
    (named "Benchmark"
       [ "routines"; "rps@1"; "rps@2"; "rps@4"; "speedup@2"; "speedup@4"; "repeat hits" ])
    (List.map fst per)
    ~notes:
      [
        Printf.sprintf "  (%d core(s) recommended on this host; speedups are paired-run medians)"
          cores;
      ]
    ~json:
      [
        ( "parallel",
          Obj
            [ ("cores", int cores); ("domain_counts", Arr (List.map int domain_counts));
              ("benchmarks", Arr (List.map snd per)) ] );
      ]

(* Translation-validation overhead: run the pipeline under full validation
   and report, per pass kind, what the validator adds on top of the pass
   itself (witness audit against the oracle for GVN; interpreter diffing
   for every rewriting pass), plus the certification totals. *)
let validate suite =
  (* Both tables are keyed by the structural [pass_kind] — never by
     splitting display names (a pass called "gvn-lite#1" must not be
     charged to GVN). Validation records carry only the display name, so
     they are mapped back to a kind through the run's own timing list,
     which pairs each exact display name with its kind. *)
  let pass_s : (Transform.Pipeline.pass_kind, float) Hashtbl.t = Hashtbl.create 8 in
  let val_s : (Transform.Pipeline.pass_kind, float) Hashtbl.t = Hashtbl.create 8 in
  let bump h k dt = Hashtbl.replace h k (dt +. try Hashtbl.find h k with Not_found -> 0.0) in
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
            if String.equal t.Transform.Pipeline.pass name then Some t.Transform.Pipeline.kind
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
    (all_funcs suite);
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) pass_s []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (kind, ps) ->
           let vs = try Hashtbl.find val_s kind with Not_found -> 0.0 in
           [ Transform.Pipeline.pass_kind_name kind; T.ms ps; T.ms vs; T.ratio vs ps ])
  in
  table
    (named "pass" [ "pass ms"; "validate ms"; "overhead x" ])
    rows
    ~notes:
      [
        Fmt.str "totals: %a | overhead %.4fs" Validate.Report.pp_summary !combined
          (Validate.Report.overhead_seconds !combined);
      ]

let bechamel () =
  let open Bechamel in
  let r = Workload.Corpus.func_of_src Workload.Corpus.routine_r_src in
  let big =
    Workload.Generator.func ~seed:4242 ~name:"bench_big"
      ~profile:{ Workload.Generator.default_profile with stmt_budget = 120 } ()
  in
  let mk name config f =
    Test.make ~name (Staged.stage (fun () -> ignore (Pgvn.Driver.run config f)))
  in
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
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  lines
    (List.concat_map
       (fun test ->
         let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
         Hashtbl.fold
           (fun name result acc ->
             (match Analyze.OLS.estimates result with
             | Some [ est ] -> Printf.sprintf "  %-24s %10.1f ns/run" name est
             | _ -> Printf.sprintf "  %-24s (no estimate)" name)
             :: acc)
           (Analyze.all ols instance results)
           []
         |> List.rev)
       tests)

(* ------------------------------------------------------------------ *)
(* The section table: what the harness can run, in print order. Each
   section's work runs at most once per process; its text and its JSON
   fields are two views of that one result. *)

type section = { name : string; title : string; result : output Lazy.t }

let sections =
  let on_suite f = lazy (f (Lazy.force suite)) in
  [
    { name = "table1"; title = "Table 1: HLO and GVN time — optimistic / balanced / pessimistic";
      result = on_suite table1 };
    { name = "table2"; title = "Table 2: GVN time — dense / sparse / basic";
      result = on_suite table2 };
    { name = "fig10"; title = "Figure 10: full optimistic vs emulated Click (strongest prior GVN)";
      result = on_suite (figure ~against:Pgvn.Config.emulate_click) };
    { name = "fig11"; title = "Figure 11: full optimistic vs emulated Wegman-Zadeck SCCP";
      result = on_suite (figure ~against:Pgvn.Config.emulate_sccp) };
    { name = "fig12"; title = "Figure 12: optimistic vs balanced value numbering";
      result = on_suite (figure ~against:Pgvn.Config.balanced) };
    { name = "scalars"; title = "Section 4/5 scalars: passes and inference visits per instruction";
      result = on_suite scalars };
    { name = "fig9"; title = "Figure 9: value-inference worst case (the paper's O(n^2) ladder)";
      result = lazy (fig9 ()) };
    { name = "fig13"; title = "Figure 13: Briggs-Torczon-Cooper pre-pass vs unified inference";
      result = lazy (fig13 ()) };
    { name = "ablation"; title = "Ablation: per-analysis contribution (whole suite totals)";
      result = on_suite ablation };
    { name = "absint"; title = "Sparse abstract interpretation: cost and fact yield";
      result = on_suite absint };
    { name = "schedule"; title = "Code-motion placement analysis: cost and opportunity yield";
      result = on_suite schedule };
    { name = "gcm"; title = "Global code motion: certified rebuilds on optimized code";
      result = on_suite gcm };
    { name = "pred"; title = "Predicate implication closure: decided branches and cost";
      result = on_suite pred };
    { name = "parallel"; title = "Parallel service: pool throughput and cache hit rate";
      result = on_suite parallel };
    { name = "validate"; title = "Translation validation: per-pass overhead (whole suite)";
      result = on_suite validate };
    { name = "bechamel"; title = "Bechamel micro-benchmarks (one per table)";
      result = lazy (bechamel ()) };
  ]

(* The sections whose fields make up BENCH_gvn.json, in the document's key
   order. --json runs each of them, whichever sections are printed. *)
let json_sections = [ "table2"; "schedule"; "gcm"; "pred"; "parallel"; "fig9" ]

let section name = List.find (fun s -> s.name = name) sections

let print_section s =
  Fmt.pr "@\n=== %s ===@\n" s.title;
  let o = Lazy.force s.result in
  if o.columns <> [] then T.render ~columns:o.columns ~rows:o.rows Fmt.stdout;
  List.iter (Fmt.pr "%s@\n") o.notes

let write_json path =
  let fields = List.concat_map (fun n -> (Lazy.force (section n).result).json) json_sections in
  let doc =
    Obj (("schema", Str "pgvn-bench/1") :: ("scale", Num (Printf.sprintf "%g" !scale)) :: fields)
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (json_to_string doc ^ "\n"));
  let scaling k =
    match List.assoc "scaling" fields with Obj l -> json_to_string (List.assoc k l) | _ -> "?"
  in
  Fmt.pr "@\nWrote %s (quadratic_ok=%s, worst visit ratio per doubling %s)@\n" path
    (scaling "quadratic_ok") (scaling "worst_visit_ratio_per_doubling")

let usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "bench: %s\n\
         usage: bench/main.exe [SECTION ...] [scale=FACTOR] [--json FILE] [--trace=FILE] [--metrics]\n\
         sections: %s\n"
        msg
        (String.concat " " (List.map (fun s -> s.name) sections));
      exit 2)
    fmt

(* The named sections (none means all), with [scale] and --json FILE
   taken out; anything else is a usage error. *)
let rec parse_args json = function
  | [] -> ([], json)
  | [ "--json" ] -> usage "--json needs a FILE"
  | "--json" :: file :: rest -> parse_args (Some file) rest
  | a :: rest when String.starts_with ~prefix:"scale=" a -> (
      match float_of_string_opt (String.sub a 6 (String.length a - 6)) with
      | Some s when Float.is_finite s && s > 0.0 ->
          scale := s;
          parse_args json rest
      | _ -> usage "bad scale %S (want a positive number)" a)
  | a :: rest when List.exists (fun s -> s.name = a) sections ->
      let named, json = parse_args json rest in
      (a :: named, json)
  | a :: _ -> usage "unknown argument %S" a

let () =
  let obs_opts, args = Cli.Cli_options.parse_obs_args (List.tl (Array.to_list Sys.argv)) in
  let named, json = parse_args None args in
  Fmt.pr "Predicated GVN benchmark harness (scale=%.2f)@\n" !scale;
  List.iter (fun s -> if named = [] || List.mem s.name named then print_section s) sections;
  Option.iter write_json json;
  Cli.Cli_options.finish obs_opts (Some obs)
