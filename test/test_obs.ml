(* The observability layer: span nesting and balance (including the
   exception-unwind path), sink capture, ring-drop accounting, the
   log-scale histogram's percentile pins, metrics snapshots, Chrome-trace
   JSON well-formedness, and the contract the bench harness rests on —
   the pipeline's timing list is exactly a view over its trace. *)

(* A deterministic fake clock: every reading advances by [step]. *)
let fake_clock ?(step = 1.0) () =
  let now = ref 0.0 in
  fun () ->
    let t = !now in
    now := t +. step;
    t

(* ------------------------------------------------------------------ *)
(* Trace.                                                              *)

let test_span_nesting () =
  let sink, seen = Obs.Sink.memory () in
  let tr = Obs.Trace.create ~clock:(fake_clock ()) ~sink () in
  let outer = Obs.Trace.begin_span tr ~cat:"t" "outer" in
  Alcotest.(check int) "depth inside outer" 1 (Obs.Trace.depth tr);
  let inner = Obs.Trace.begin_span tr ~cat:"t" "inner" in
  Alcotest.(check int) "depth inside inner" 2 (Obs.Trace.depth tr);
  Obs.Trace.end_span tr inner;
  Obs.Trace.end_span tr outer;
  Alcotest.(check bool) "balanced" true (Obs.Trace.balanced tr);
  Alcotest.(check int) "two spans recorded" 2 (Obs.Trace.spans_recorded tr);
  (* clock readings: epoch=0, B(outer)=1, B(inner)=2, E(inner)=3, E(outer)=4 *)
  Alcotest.(check (float 1e-9)) "inner duration" 1.0 (Obs.Trace.duration inner);
  Alcotest.(check (float 1e-9)) "outer duration" 3.0 (Obs.Trace.duration outer);
  let names = List.map Obs.Sink.event_name (seen ()) in
  Alcotest.(check (list string)) "sink saw the stream in order"
    [ "outer"; "inner"; "inner"; "outer" ] names

let test_end_span_unwinds () =
  let tr = Obs.Trace.create ~clock:(fake_clock ()) () in
  let a = Obs.Trace.begin_span tr "a" in
  let b = Obs.Trace.begin_span tr "b" in
  let _c = Obs.Trace.begin_span tr "c" in
  (* Closing [a] out of order must close c and b first so every recorded
     begin keeps a matching end. *)
  Obs.Trace.end_span tr a;
  Alcotest.(check bool) "balanced after unwind" true (Obs.Trace.balanced tr);
  Alcotest.(check int) "all three closed" 3 (Obs.Trace.spans_recorded tr);
  (* Closing an already-closed span is a no-op. *)
  Obs.Trace.end_span tr b;
  Alcotest.(check int) "no double close" 3 (Obs.Trace.spans_recorded tr)

let test_with_span_exception_safe () =
  let tr = Obs.Trace.create ~clock:(fake_clock ()) () in
  (try
     Obs.Trace.with_span tr "boom" (fun () ->
         ignore (Obs.Trace.begin_span tr "nested");
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "balanced after exception" true (Obs.Trace.balanced tr)

let test_ring_drop () =
  let tr = Obs.Trace.create ~capacity:8 ~clock:(fake_clock ()) () in
  for i = 1 to 10 do
    Obs.Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "all spans counted past the ring" 10 (Obs.Trace.spans_recorded tr);
  Alcotest.(check int) "ring keeps capacity events" 8 (List.length (Obs.Trace.events tr));
  Alcotest.(check int) "dropped the overflow" 12 (Obs.Trace.dropped tr);
  Alcotest.(check bool) "a lossy ring is not balanced" false (Obs.Trace.balanced tr)

(* Random well-nested span trees: the stream stays balanced, and a parent
   span covers at least the sum of its direct children. *)
let prop_span_balance =
  (* At most 9 levels of width <= 3: the worst-case tree stays within the
     ring's default capacity — an overflowing ring is lossy and correctly
     reports unbalanced (see test_ring_drop), which is not this property. *)
  QCheck.Test.make ~name:"random span trees balance; parents cover children" ~count:100
    QCheck.(list_of_size Gen.(int_bound 8) (int_bound 3))
    (fun shape ->
      let tr = Obs.Trace.create ~clock:(fake_clock ~step:0.125 ()) () in
      let rec grow depth shape =
        match shape with
        | [] -> 0.0
        | width :: rest ->
            let sp = Obs.Trace.begin_span tr (Printf.sprintf "d%d" depth) in
            let children = ref 0.0 in
            for _ = 1 to width do
              children := !children +. grow (depth + 1) rest
            done;
            Obs.Trace.end_span tr sp;
            if Obs.Trace.duration sp < !children then
              QCheck.Test.fail_report "parent shorter than its children";
            Obs.Trace.duration sp
      in
      ignore (grow 0 shape);
      Obs.Trace.balanced tr)

(* ------------------------------------------------------------------ *)
(* Histogram.                                                          *)

let test_hist_buckets () =
  Alcotest.(check int) "0ns -> bucket 0" 0 (Obs.Hist.bucket_of_ns 0);
  Alcotest.(check int) "1ns -> bucket 0" 0 (Obs.Hist.bucket_of_ns 1);
  Alcotest.(check int) "2ns -> bucket 1" 1 (Obs.Hist.bucket_of_ns 2);
  Alcotest.(check int) "3ns -> bucket 1" 1 (Obs.Hist.bucket_of_ns 3);
  Alcotest.(check int) "1000ns -> bucket 9" 9 (Obs.Hist.bucket_of_ns 1000);
  Alcotest.(check int) "bucket 9 tops at 1023" 1023 (Obs.Hist.bucket_hi_ns 9);
  Alcotest.(check int) "1e6ns -> bucket 19" 19 (Obs.Hist.bucket_of_ns 1_000_000)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "empty percentile is 0" 0 (Obs.Hist.percentile_ns h 0.5);
  (* 1000 fast samples and 10 slow outliers: the median answers with the
     fast bucket's bound, the tail percentile with the outliers'. *)
  for _ = 1 to 1000 do
    Obs.Hist.observe_ns h 1000
  done;
  for _ = 1 to 10 do
    Obs.Hist.observe_ns h 1_000_000
  done;
  Alcotest.(check int) "total" 1010 (Obs.Hist.total h);
  Alcotest.(check int) "p50 covered by the 1000ns bucket" 1023 (Obs.Hist.percentile_ns h 0.5);
  Alcotest.(check int) "p99.5 reaches the outlier bucket" 1048575
    (Obs.Hist.percentile_ns h 0.995);
  Alcotest.(check int) "p100 = worst bucket bound" 1048575 (Obs.Hist.percentile_ns h 1.0)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  Obs.Hist.observe_ns a 10;
  Obs.Hist.observe_ns b 10;
  Obs.Hist.observe_ns b 5000;
  Obs.Hist.merge_into ~dst:a b;
  Alcotest.(check int) "merged total" 3 (Obs.Hist.total a);
  Alcotest.(check int) "shared bucket summed" 2 (Obs.Hist.count a (Obs.Hist.bucket_of_ns 10))

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let test_metrics_snapshot () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "x.count" 2;
  Obs.Metrics.incr m "x.count";
  Obs.Metrics.add m "a.count" 5;
  Obs.Metrics.max_gauge m "x.peak" 3.0;
  Obs.Metrics.max_gauge m "x.peak" 1.0;
  Obs.Metrics.observe_ns m "x.ns" 100;
  let s = Obs.Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "counters name-sorted with totals"
    [ ("a.count", 5); ("x.count", 3) ]
    s.Obs.Metrics.counters;
  Alcotest.(check (list (pair string (float 1e-9))))
    "max gauge kept the peak"
    [ ("x.peak", 3.0) ]
    s.Obs.Metrics.gauges;
  Alcotest.(check int) "one histogram" 1 (List.length s.Obs.Metrics.hists)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add a "n" 1;
  Obs.Metrics.add b "n" 2;
  Obs.Metrics.max_gauge a "g" 5.0;
  Obs.Metrics.max_gauge b "g" 3.0;
  Obs.Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "counters add" 3 (Obs.Metrics.counter a "n");
  Alcotest.(check (option (float 1e-9))) "gauges max" (Some 5.0) (Obs.Metrics.gauge a "g")

let test_metrics_concurrent_hammer () =
  (* Two domains hammering one registry: the totals must come out exact —
     a lost update under the parallel driver would silently skew every
     merged report. One counter is shared (contended adds), one gauge races
     on its max, and each domain owns a private counter so per-writer
     totals stay visible. *)
  let m = Obs.Metrics.create () in
  let rounds = 100_000 in
  let worker who () =
    for i = 1 to rounds do
      Obs.Metrics.incr m "hammer.shared";
      Obs.Metrics.add m (Printf.sprintf "hammer.d%d" who) 2;
      Obs.Metrics.max_gauge m "hammer.peak" (float_of_int i);
      Obs.Metrics.observe_ns m "hammer.ns" 10
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  Alcotest.(check int) "shared counter exact" (2 * rounds) (Obs.Metrics.counter m "hammer.shared");
  Alcotest.(check int) "domain 0 counter exact" (2 * rounds) (Obs.Metrics.counter m "hammer.d0");
  Alcotest.(check int) "domain 1 counter exact" (2 * rounds) (Obs.Metrics.counter m "hammer.d1");
  Alcotest.(check (option (float 1e-9)))
    "gauge kept the max" (Some (float_of_int rounds)) (Obs.Metrics.gauge m "hammer.peak");
  let s = Obs.Metrics.snapshot m in
  let buckets = List.assoc "hammer.ns" s.Obs.Metrics.hists in
  let observations = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  Alcotest.(check int) "histogram observations exact" (2 * rounds) observations

let test_metrics_sink_capture () =
  let sink, seen = Obs.Sink.memory () in
  let o = Obs.create ~sink () in
  Obs.add o "k" 1;
  Obs.add o "k" 2;
  let totals =
    List.filter_map
      (function Obs.Sink.Count { name = "k"; total; _ } -> Some total | _ -> None)
      (seen ())
  in
  Alcotest.(check (list int)) "sink saw the running totals" [ 1; 3 ] totals

(* ------------------------------------------------------------------ *)
(* Chrome trace output: a minimal JSON reader (no external parser in the
   test tier) checks the document is well-formed, and the B/E stream is
   balanced per span name. *)

exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then
      raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad_json "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then raise (Bad_json "bad escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'u' ->
              if !pos + 4 >= n then raise (Bad_json "bad \\u escape");
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* The value tree: objects/arrays as assoc/lists, scalars as strings. *)
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          `Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> raise (Bad_json "expected , or } in object")
          in
          `Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          `Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> raise (Bad_json "expected , or ] in array")
          in
          `Arr (elems [])
        end
    | Some '"' -> `Str (string_lit ())
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with ',' | '}' | ']' | ' ' | '\t' | '\n' | '\r' -> false | _ -> true
        do
          incr pos
        done;
        if !pos = start then raise (Bad_json "empty scalar");
        `Scalar (String.sub s start (!pos - start))
    | None -> raise (Bad_json "unexpected end")
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let chrome_doc_of_trace tr =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Trace.pp_chrome ppf tr;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Replay a parsed traceEvents array as a stack machine: every E must
   match the innermost open B's name, and nothing stays open. *)
let check_chrome_balanced = function
  | `Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (`Arr evs) ->
          let stack =
            List.fold_left
              (fun stack ev ->
                match ev with
                | `Obj f -> (
                    let str k =
                      match List.assoc_opt k f with Some (`Str s) -> s | _ -> "?"
                    in
                    match str "ph" with
                    | "B" -> str "name" :: stack
                    | "E" -> (
                        match stack with
                        | top :: rest when String.equal top (str "name") -> rest
                        | _ -> Alcotest.failf "unbalanced E for %s" (str "name"))
                    | ph -> Alcotest.failf "unexpected phase %s" ph)
                | _ -> Alcotest.fail "traceEvents element is not an object")
              [] evs
          in
          Alcotest.(check (list string)) "no span left open" [] stack;
          List.length evs
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "chrome doc is not an object"

let test_chrome_json () =
  let tr = Obs.Trace.create ~clock:(fake_clock ()) () in
  Obs.Trace.with_span tr ~cat:"pass" "outer \"quoted\"" (fun () ->
      Obs.Trace.with_span tr ~cat:"gvn" "inner" (fun () -> ()));
  let doc = parse_json (chrome_doc_of_trace tr) in
  let n = check_chrome_balanced doc in
  Alcotest.(check int) "two spans = four events" 4 n

(* ------------------------------------------------------------------ *)
(* The pipeline contract: [result.timings] is a view over the trace, so
   per-pass totals reconstructed from the raw span stream must agree with
   the timing list — on every routine of all ten workload benchmarks. *)

let reconstruct_pass_totals events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Obs.Sink.Span_end { name; cat = "pass"; dur; _ } ->
          Hashtbl.replace tbl name (dur +. try Hashtbl.find tbl name with Not_found -> 0.0)
      | _ -> ())
    events;
  tbl

let test_timings_agree_with_trace () =
  let checked = ref 0 in
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          let o = Obs.create () in
          let r =
            let opts = Transform.Pipeline.Options.(default |> with_obs o) in
            Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f
          in
          let from_trace = reconstruct_pass_totals (Obs.Trace.events o.Obs.trace) in
          (* A pass instance name can repeat within a round (dce runs three
             times), so compare name-summed totals on both sides. *)
          let from_timings = Hashtbl.create 16 in
          List.iter
            (fun (t : Transform.Pipeline.timing) ->
              Hashtbl.replace from_timings t.Transform.Pipeline.pass
                (t.Transform.Pipeline.seconds
                +. try Hashtbl.find from_timings t.Transform.Pipeline.pass
                   with Not_found -> 0.0))
            r.Transform.Pipeline.timings;
          Hashtbl.iter
            (fun name timed ->
              let traced =
                try Hashtbl.find from_trace name
                with Not_found ->
                  Alcotest.failf "%s: pass %s timed but not traced" b.Workload.Suite.name
                    name
              in
              if abs_float (traced -. timed) > 1e-6 then
                Alcotest.failf "%s: pass %s traced %.9fs vs timed %.9fs"
                  b.Workload.Suite.name name traced timed;
              incr checked)
            from_timings;
          (* And the headline numbers are the same view. *)
          let gvn_from_trace =
            Hashtbl.fold
              (fun name dur acc ->
                (* every GVN pass instance is named gvn#round *)
                if List.exists
                     (fun (t : Transform.Pipeline.timing) ->
                       String.equal t.Transform.Pipeline.pass name
                       && t.Transform.Pipeline.kind = Transform.Pipeline.Gvn)
                     r.Transform.Pipeline.timings
                then acc +. dur
                else acc)
              from_trace 0.0
          in
          Alcotest.(check (float 1e-6))
            "gvn_seconds is the kind-matched span total" gvn_from_trace
            r.Transform.Pipeline.gvn_seconds;
          Alcotest.(check bool) "trace stayed balanced" true (Obs.Trace.balanced o.Obs.trace))
        funcs)
    (Workload.Suite.all ~scale:0.1 ());
  Alcotest.(check bool) "compared a real number of pass instances" true (!checked > 100)

let suite =
  [
    Alcotest.test_case "span nesting, depth and durations" `Quick test_span_nesting;
    Alcotest.test_case "end_span unwinds out-of-order closes" `Quick test_end_span_unwinds;
    Alcotest.test_case "with_span is exception-safe" `Quick test_with_span_exception_safe;
    Alcotest.test_case "ring drops oldest and counts it" `Quick test_ring_drop;
    QCheck_alcotest.to_alcotest prop_span_balance;
    Alcotest.test_case "log-scale bucket boundaries" `Quick test_hist_buckets;
    Alcotest.test_case "percentile pins" `Quick test_hist_percentiles;
    Alcotest.test_case "histogram merge" `Quick test_hist_merge;
    Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics survive two concurrent writers" `Quick
      test_metrics_concurrent_hammer;
    Alcotest.test_case "metrics stream to the sink" `Quick test_metrics_sink_capture;
    Alcotest.test_case "chrome trace JSON is well-formed and balanced" `Quick test_chrome_json;
    Alcotest.test_case "pipeline timings are a view over the trace" `Slow
      test_timings_agree_with_trace;
  ]
