(* The parallel compilation service (lib/par and Cli.Compile): the domain
   pool's batch semantics (input order, leftmost exception, no task
   holding back its batch, back-to-back batches), the corpus-wide
   determinism pin (gvnopt's request function at 1 and 3 domains must
   render byte-identical output and merge to the same metrics), per-routine
   containment of an internal error, the content-addressed result cache's
   keys and its two tiers, and the two-domain regression for the state
   every domain shares (Rules.Engine's immutable compiled table) or keeps
   to itself (Infer's fault hook). *)

let func_of_src = Helpers.func_of_src

(* ------------------------------------------------------------------ *)
(* Pool: batch semantics.                                              *)

let test_pool_map_order () =
  Par.Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Par.Pool.map pool (fun i -> (i * i) + 1) input in
      Alcotest.(check (array int))
        "results in input order"
        (Array.map (fun i -> (i * i) + 1) input)
        out;
      Alcotest.(check (array int)) "empty batch" [||] (Par.Pool.map pool (fun i -> i) [||]))

let test_pool_reuse () =
  (* One pool, several batches: the generation protocol must rearm. *)
  Par.Pool.with_pool ~domains:2 (fun pool ->
      for round = 1 to 5 do
        let out = Par.Pool.map pool (fun i -> i + round) (Array.init 17 (fun i -> i)) in
        Alcotest.(check int) "last element" (16 + round) out.(16)
      done)

(* Back-to-back tiny batches: a worker that wakes late for one batch may
   find the next already published, and must neither lose nor double-count
   a task of either. 4 domains oversubscribe a 2-core host, so workers are
   descheduled mid-batch. The loop runs off the main domain so a hang
   fails against the deadline instead of stalling the suite. *)
let test_pool_back_to_back_batches domains () =
  let batches = 20_000 and deadline_s = 60.0 in
  let finished = Atomic.make 0 and stopped = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set stopped true) @@ fun () ->
        Par.Pool.with_pool ~domains (fun pool ->
            let input = Array.init 8 (fun i -> i) in
            for b = 1 to batches do
              let out = Par.Pool.map pool (fun i -> i + b) input in
              if out.(7) <> 7 + b then failwith (Printf.sprintf "batch %d: wrong result" b);
              Atomic.set finished b
            done))
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < deadline_s do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get stopped) then
    Alcotest.failf "pool hung: %d of %d back-to-back batches finished within %.0f s"
      (Atomic.get finished) batches deadline_s;
  Domain.join runner;
  Alcotest.(check int) "every batch finished" batches (Atomic.get finished)

let test_pool_single_domain_fallback () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Par.Pool.size pool);
      let out = Par.Pool.map pool string_of_int (Array.init 9 (fun i -> i)) in
      Alcotest.(check string) "sequential fallback" "8" out.(8))

exception Boom of int

let test_pool_exception_leftmost () =
  Par.Pool.with_pool ~domains:3 (fun pool ->
      let f i = if i mod 4 = 2 then raise (Boom i) else i in
      (* Failures at 2, 6, 10, ...: the leftmost (index 2) must be the one
         re-raised, whatever order the workers hit them in. *)
      match Par.Pool.map pool f (Array.init 12 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "leftmost failure wins" 2 i)

(* A failed batch leaves the pool usable: the exception surfaces only
   after every task has finished, so the next batch starts clean. *)
let test_pool_reuse_after_exception () =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let input = Array.init 12 (fun i -> i) in
      (match Par.Pool.map pool (fun i -> if i = 5 then raise (Boom i) else i) input with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      Alcotest.(check (array int))
        "the next batch's results" (Array.map succ input)
        (Par.Pool.map pool succ input))

(* One slow task must not hold back the rest of its batch: on a 2-domain
   pool, task 0 waits until every other task has finished. Whichever
   participant claims it, the other must run the remaining tasks. The
   deadline turns a stall into a failure instead of a hang. *)
let test_pool_blocked_task () =
  let n = 16 and deadline_s = 30.0 in
  let others_done = Atomic.make 0 in
  let f i =
    if i > 0 then begin
      Atomic.incr others_done;
      i
    end
    else begin
      let t0 = Unix.gettimeofday () in
      while Atomic.get others_done < n - 1 && Unix.gettimeofday () -. t0 < deadline_s do
        Unix.sleepf 0.001
      done;
      Atomic.get others_done
    end
  in
  let out = Par.Pool.with_pool ~domains:2 (fun pool -> Par.Pool.map pool f (Array.init n Fun.id)) in
  Alcotest.(check int) "task 0 saw every other task finish" (n - 1) out.(0)

let test_pool_invalid_arguments () =
  Alcotest.check_raises "domains = 0" (Invalid_argument "Par.Pool.create: domains must be >= 1")
    (fun () -> ignore (Par.Pool.create ~domains:0 ()));
  (* Refused before any domain is spawned. *)
  Alcotest.check_raises "domains > max_domains"
    (Invalid_argument
       (Printf.sprintf "Par.Pool.create: domains must be <= %d" Par.Pool.max_domains))
    (fun () -> ignore (Par.Pool.create ~domains:(Par.Pool.max_domains + 1) ()));
  let pool = Par.Pool.create ~domains:2 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Par.Pool.map: pool is shut down") (fun () ->
      ignore (Par.Pool.map pool (fun i -> i) [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Determinism: the whole (scaled) ten-benchmark corpus, compiled as one
   gvnopt request sequentially and through a multi-domain pool, must
   render byte-identical text and merge to identical metrics. This is the
   library-level half of the driver's `--jobs` determinism contract. *)

(* gvnopt's options with no flag given. *)
let default_opts =
  {
    Cli.Compile.config = Cli.Cli_options.apply_toggles Cli.Cli_options.no_toggles Pgvn.Config.full;
    pruning = Ssa.Construct.Semi_pruned;
    action = Optimize;
    stats = false;
    dump_input = false;
    run_args = None;
    check = false;
    lint = false;
    werror = false;
    validate = None;
    gcm = None;
  }

(* Workload.Suite's routines at scale 0.2, as mini-C text. A suite name
   such as "176.gcc" is no identifier, so routines are named by seed. *)
let corpus_source () =
  Workload.Suite.benchmarks
  |> List.concat_map (fun (b : Workload.Suite.benchmark) ->
         List.init (max 1 (b.routines / 5)) (fun k ->
             let profile =
               {
                 Workload.Generator.default_profile with
                 stmt_budget = b.stmt_budget + (k mod 7 * 5);
                 params = 3 + (k mod 3);
               }
             in
             Workload.Generator.routine ~profile ~seed:((b.seed * 10_000) + k)
               ~name:(Printf.sprintf "b%d_r%03d" b.seed k) ()))
  |> List.map (Fmt.str "%a@." Ir.Ast.pp_routine)
  |> String.concat ""

(* The merged metrics report, less the latency percentiles: a histogram
   keeps its name and observation count. *)
let metrics_report obs =
  Str.global_replace (Str.regexp " p50<=.*$") "" (Fmt.str "%a" Obs.pp_metrics obs)

let test_corpus_determinism () =
  let src = corpus_source () in
  let run domains =
    let obs = Obs.create () in
    match
      Par.Pool.with_pool ~domains (fun pool ->
          Cli.Compile.request ~opts:default_opts ~pool ~cache:(Par.Ccache.create ())
            ~obs:(Some obs) ~path:"corpus.mc" src)
    with
    | Ok (status, text) -> (status, text, metrics_report obs)
    | Error diag -> Alcotest.fail diag
  in
  let status, text, metrics = run 1 in
  let pstatus, ptext, pmetrics = run 3 in
  let sections t = List.tl (Str.split_delim (Str.regexp_string "=== ") t) in
  Alcotest.(check int) "corpus is non-trivial" 66 (List.length (sections text));
  Alcotest.(check (pair int int)) "clean at 1 and 3 domains" (0, 0) (status, pstatus);
  List.iteri
    (fun i (a, b) ->
      if not (String.equal a b) then
        Alcotest.failf "routine %d: parallel output diverges from sequential" i)
    (List.combine (sections text) (sections ptext));
  Alcotest.(check string) "rendered text identical" text ptext;
  (* Per-routine contexts merged in input order: the aggregate report must
     not depend on which domain ran which routine. *)
  Alcotest.(check bool) "metrics were recorded" true (String.length metrics > 0);
  Alcotest.(check string) "merged metrics reports identical" metrics pmetrics

(* An exception that escapes one routine's compile becomes that routine's
   text with status 2; it is not cached, every other routine is rendered
   in input order, and the next request is answered. The parser rejects a
   top-level break, so the routine is built directly; lowering raises. *)
let test_routine_error_contained () =
  let bad =
    { Ir.Ast.name = "bad"; params = [ "a" ]; body = [ Ir.Ast.Sbreak; Ir.Ast.Sreturn (Ir.Ast.Evar "a") ] }
  in
  let good_src = "routine good(a) { return a + 1; }\n" in
  let good = Ir.Parser.parse_one good_src in
  let compile ~pool ~cache routines =
    Cli.Compile.compile_routines ~opts:default_opts ~pool ~cache ~obs:(Some (Obs.create ())) routines
  in
  let good_text =
    Par.Pool.with_pool ~domains:1 (fun pool -> snd (compile ~pool ~cache:(Par.Ccache.create ()) [ good ]))
  in
  List.iter
    (fun domains ->
      Par.Pool.with_pool ~domains (fun pool ->
          let cache = Par.Ccache.create () in
          let status, text = compile ~pool ~cache [ bad; good ] in
          Alcotest.(check int) "worst status" 2 status;
          Alcotest.(check string) "the failed routine's text, then the good routine's"
            ("=== bad ===\nbad (internal): Failure(\"Lower: break outside loop\")\n" ^ good_text)
            text;
          Alcotest.(check int) "only the good routine is cached" 1
            (Par.Ccache.stats cache).Par.Ccache.entries;
          match
            Cli.Compile.request ~opts:default_opts ~pool ~cache ~obs:None ~path:"<stdin>" good_src
          with
          | Ok response -> Alcotest.(check (pair int string)) "the next request" (0, good_text) response
          | Error diag -> Alcotest.fail diag))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Two-domain pipeline regression: Rules.Engine's compiled table, which
   every domain reads, and the rule fire counts each run keeps in its own
   Run_stats must give each domain the same answers it gives a sequential
   run. Raw Domain.spawn (no pool) so the test pins the library invariant,
   not the pool's scheduling. *)

let test_two_domain_pipeline_matches_sequential () =
  let srcs =
    [|
      "routine F(A, B) { X = A + B; Y = B + A; if (X == Y) { R = X * 2; } else { R = 0; } \
       return R; }";
      "routine G(N) { S = 0; I = 0; while (I < N) { S = S + I; I = I + 1; } return S; }";
    |]
  in
  let run src = Ir.Printer.to_string (Helpers.optimize Pgvn.Config.full (func_of_src src)) in
  let expected = Array.map run srcs in
  let d0 = Domain.spawn (fun () -> run srcs.(0)) in
  let d1 = Domain.spawn (fun () -> run srcs.(1)) in
  Alcotest.(check string) "domain 0 matches sequential" expected.(0) (Domain.join d0);
  Alcotest.(check string) "domain 1 matches sequential" expected.(1) (Domain.join d1)

(* ------------------------------------------------------------------ *)
(* Ccache: keys.                                                       *)

let ast_of_src src =
  match Ir.Parser.parse_program src with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected one routine"

(* gvnopt keys on the parsed routine: anything the routine holds, and the
   flag fingerprint, separates keys; two parses of one text key equal. *)
let test_ccache_keys_distinguish () =
  let key ?fingerprint src = Par.Ccache.key_of ?fingerprint (ast_of_src src) in
  let k = key "routine F(A) { return A + 1; }" in
  Alcotest.(check string) "equal routines key equal" k.Par.Ccache.kcanon
    (key "routine F(A) { return A + 1; }").Par.Ccache.kcanon;
  let differs what k' =
    Alcotest.(check bool) what false (String.equal k.Par.Ccache.kcanon k'.Par.Ccache.kcanon)
  in
  differs "different bodies differ" (key "routine F(A) { return A + 2; }");
  differs "different names differ" (key "routine G(A) { return A + 1; }");
  (* The fingerprint folds configuration into the key: same routine,
     different flags, different key. *)
  let k1 = key ~fingerprint:"flags=a" "routine F(A) { return A + 1; }" in
  let k2 = key ~fingerprint:"flags=b" "routine F(A) { return A + 1; }" in
  Alcotest.(check bool) "fingerprint separates keys" false
    (String.equal k1.Par.Ccache.kcanon k2.Par.Ccache.kcanon)

(* Persisted cache files store the key hash, so FNV-1a's values are pinned
   to those of the original implementation. *)
let test_ccache_fnv1a_pinned () =
  Alcotest.(check int) "empty string" 860922984064492325 (Par.Ccache.fnv1a "");
  Alcotest.(check int) "canonical form" 1153577357433786241
    (Par.Ccache.fnv1a "b0:\n  v0 = param 0\n  return v0\n");
  Alcotest.(check int) "every byte value" 162934782521718309
    (Par.Ccache.fnv1a (String.init 256 Char.chr))

(* gvnopt keys the cache on the parsed routine list, so these hashes pin
   the frontend's ASTs: a parser change that moved any of them would
   cold-start every persisted cache. Recorded before the streaming
   parser replaced the token-array one. *)
let test_ccache_parsed_keys_pinned () =
  let expected =
    [
      ("inference.mc", 595548735069726735);
      ("loops.mc", 3686939964095487203);
      ("routine_r.mc", 1926570695549361776);
      ("routine_r", 1926570695549361776);
      ("figure6", 253683656970887085);
      ("figure13", 4036811589270275259);
      ("figure14a", 760099801554568691);
      ("figure14b", 120937184420286121);
      ("loop_invariant", 1892589960275803609);
      ("cyclic_congruence", 3478090567059217986);
      ("phi_predication", 4128779748934768460);
      ("predicate_inference", 146643374007456080);
      ("reassociation", 727798239178605731);
    ]
  in
  Alcotest.(check (list (pair string int)))
    "khash of each file's routine list" expected
    (List.map
       (fun (name, src) -> (name, (Par.Ccache.key_of (Ir.Parser.parse_program src)).khash))
       (Helpers.shipped_sources ()))

(* ------------------------------------------------------------------ *)
(* Ccache: in-memory tier.                                             *)

let key_of_src src = Par.Ccache.key_of (func_of_src src)

let test_ccache_hit_miss_evict () =
  let c = Par.Ccache.create ~capacity:2 () in
  let k1 = key_of_src "routine F(A) { return A + 1; }" in
  let k2 = key_of_src "routine F(A) { return A + 2; }" in
  let k3 = key_of_src "routine F(A) { return A + 3; }" in
  Alcotest.(check (option string)) "cold miss" None (Par.Ccache.find c k1);
  Par.Ccache.add c k1 "one";
  Par.Ccache.add c k2 "two";
  Alcotest.(check (option string)) "hit k1" (Some "one") (Par.Ccache.find c k1);
  Alcotest.(check (option string)) "hit k2" (Some "two") (Par.Ccache.find c k2);
  (* Overwrite in place must not evict. *)
  Par.Ccache.add c k1 "one'";
  Alcotest.(check (option string)) "overwrite" (Some "one'") (Par.Ccache.find c k1);
  (* Third distinct key at capacity 2: the oldest entry (k1) goes. *)
  Par.Ccache.add c k3 "three";
  Alcotest.(check (option string)) "k1 evicted oldest-first" None (Par.Ccache.find c k1);
  Alcotest.(check (option string)) "k3 resident" (Some "three") (Par.Ccache.find c k3);
  let s = Par.Ccache.stats c in
  Alcotest.(check int) "entries" 2 s.Par.Ccache.entries;
  Alcotest.(check int) "hits" 4 s.Par.Ccache.hits;
  Alcotest.(check int) "misses" 2 s.Par.Ccache.misses;
  Alcotest.(check int) "evictions" 1 s.Par.Ccache.evictions

(* Same routine, different flag fingerprints (the gvnopt --gcm toggle is
   one): a result cached under one fingerprint must never answer a lookup
   under another, and each fingerprint's entry must come back verbatim. *)
let test_ccache_fingerprint_hit_miss () =
  let c = Par.Ccache.create () in
  let f = func_of_src "routine F(A) { return A * 7; }" in
  let k_off = Par.Ccache.key_of ~fingerprint:"gcm=off" f in
  let k_on = Par.Ccache.key_of ~fingerprint:"gcm=on" f in
  Par.Ccache.add c k_off "no motion";
  Alcotest.(check (option string)) "other-flags lookup misses" None (Par.Ccache.find c k_on);
  Par.Ccache.add c k_on "hoisted";
  Alcotest.(check (option string)) "each fingerprint keeps its own entry"
    (Some "no motion") (Par.Ccache.find c k_off);
  Alcotest.(check (option string)) "same-flags lookup hits" (Some "hoisted")
    (Par.Ccache.find c k_on);
  let s = Par.Ccache.stats c in
  Alcotest.(check int) "one cross-flag miss" 1 s.Par.Ccache.misses;
  Alcotest.(check int) "two same-flag hits" 2 s.Par.Ccache.hits

let test_ccache_collision_verifies () =
  let c = Par.Ccache.create () in
  let k = key_of_src "routine F(A) { return A * 3; }" in
  Par.Ccache.add c k "real";
  (* A forged key with the same structural hash but a different canonical
     form models a hash collision: verify-on-hit must answer a miss, never
     the colliding entry's result. *)
  let forged = { k with Par.Ccache.kcanon = k.Par.Ccache.kcanon ^ "tampered" } in
  Alcotest.(check (option string)) "collision is a miss" None (Par.Ccache.find c forged);
  Alcotest.(check (option string)) "real key still hits" (Some "real") (Par.Ccache.find c k)

let test_ccache_concurrent_access () =
  (* Two domains hammering one cache: no torn entries, every hit verified. *)
  let c = Par.Ccache.create ~capacity:64 () in
  let keys =
    Array.init 8 (fun i ->
        key_of_src (Printf.sprintf "routine F(A) { return A + %d; }" i))
  in
  let worker () =
    for round = 0 to 499 do
      let i = round mod 8 in
      (match Par.Ccache.find c keys.(i) with
      | Some v -> if v <> string_of_int i then Alcotest.fail "torn cache value"
      | None -> ());
      Par.Ccache.add c keys.(i) (string_of_int i)
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Alcotest.(check int) "all keys resident" 8 (Par.Ccache.stats c).Par.Ccache.entries

(* ------------------------------------------------------------------ *)
(* Ccache: persisted tier.                                             *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("pgvn_ccache_" ^ name)

let test_ccache_persist_round_trip () =
  let path = tmp "roundtrip.bin" in
  let c = Par.Ccache.create () in
  let k1 = key_of_src "routine F(A) { return A + 1; }" in
  let k2 = key_of_src "routine F(A, B) { return A * B; }" in
  Par.Ccache.add c k1 "r1\nmultiline body";
  Par.Ccache.add c k2 "";
  (* empty value survives *)
  Par.Ccache.save c path;
  let c' = Par.Ccache.load path in
  Alcotest.(check int) "entries restored" 2 (Par.Ccache.stats c').Par.Ccache.entries;
  Alcotest.(check (option string)) "value restored" (Some "r1\nmultiline body")
    (Par.Ccache.find c' k1);
  Alcotest.(check (option string)) "empty value restored" (Some "") (Par.Ccache.find c' k2);
  Sys.remove path

(* A load keeps the newest [capacity] entries, and a later insertion
   evicts the oldest of those: the saved FIFO order survives the file. *)
let test_ccache_persist_capacity () =
  let path = tmp "capacity.bin" in
  let keys =
    Array.init 4 (fun i -> key_of_src (Printf.sprintf "routine F(A) { return A + %d; }" i))
  in
  let c = Par.Ccache.create () in
  for i = 0 to 2 do
    Par.Ccache.add c keys.(i) (string_of_int i)
  done;
  Par.Ccache.save c path;
  let c' = Par.Ccache.load ~capacity:2 path in
  Sys.remove path;
  let resident i = Par.Ccache.find c' keys.(i) in
  Alcotest.(check int) "capacity honoured" 2 (Par.Ccache.stats c').Par.Ccache.entries;
  Alcotest.(check (option string)) "oldest dropped" None (resident 0);
  Alcotest.(check (option string)) "second kept" (Some "1") (resident 1);
  Alcotest.(check (option string)) "newest kept" (Some "2") (resident 2);
  Par.Ccache.add c' keys.(3) "3";
  Alcotest.(check (option string)) "next add evicts the older survivor" None (resident 1);
  Alcotest.(check (option string)) "newer survivor stays" (Some "2") (resident 2);
  Alcotest.(check (option string)) "new entry resident" (Some "3") (resident 3)

let test_ccache_corrupt_loads_cold () =
  let cold_from contents name =
    let path = tmp name in
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    let c = Par.Ccache.load path in
    Sys.remove path;
    (Par.Ccache.stats c).Par.Ccache.entries
  in
  Alcotest.(check int) "missing file" 0
    (Par.Ccache.stats (Par.Ccache.load (tmp "nonexistent.bin"))).Par.Ccache.entries;
  Alcotest.(check int) "garbage" 0 (cold_from "not a cache file at all" "garbage.bin");
  Alcotest.(check int) "wrong version" 0 (cold_from "pgvn-ccache/99\n0\n" "badver.bin");
  Alcotest.(check int) "bad count" 0 (cold_from "pgvn-ccache/2\nfive\n" "badcount.bin");
  (* A well-formed file of the previous format: its keys were canonical
     forms of SSA, which no current key can equal, so it loads cold. *)
  let v1_key = "pgvn-key/1\nname=F nparams=1 fp=0:\nb0:\n  v0 = param 0\n  return v0\n" in
  Alcotest.(check int) "previous format version" 0
    (cold_from
       (Printf.sprintf "pgvn-ccache/1\n1\n%d %d 2\n%s0x\n" (Par.Ccache.fnv1a v1_key)
          (String.length v1_key) v1_key)
       "v1.bin");
  (* A valid prefix then truncation mid-entry: still a cold cache. *)
  let c = Par.Ccache.create () in
  Par.Ccache.add c (key_of_src "routine F(A) { return A; }") "v";
  let path = tmp "trunc.bin" in
  Par.Ccache.save c path;
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 3));
  close_out oc;
  let c' = Par.Ccache.load path in
  Sys.remove path;
  Alcotest.(check int) "truncated entry" 0 (Par.Ccache.stats c').Par.Ccache.entries

let suite =
  [
    Alcotest.test_case "pool maps in input order" `Quick test_pool_map_order;
    Alcotest.test_case "pool runs repeated batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool survives back-to-back tiny batches" `Quick
      (test_pool_back_to_back_batches 2);
    Alcotest.test_case "pool survives back-to-back tiny batches, 4 domains" `Quick
      (test_pool_back_to_back_batches 4);
    Alcotest.test_case "a blocked task does not hold back its batch" `Quick test_pool_blocked_task;
    Alcotest.test_case "single-domain pool degrades to Array.map" `Quick
      test_pool_single_domain_fallback;
    Alcotest.test_case "leftmost task exception is re-raised" `Quick test_pool_exception_leftmost;
    Alcotest.test_case "a pool keeps working after a raising batch" `Quick
      test_pool_reuse_after_exception;
    Alcotest.test_case "pool argument and lifecycle errors" `Quick test_pool_invalid_arguments;
    Alcotest.test_case "parallel == sequential over the corpus" `Slow test_corpus_determinism;
    Alcotest.test_case "an internal error stays in its routine" `Quick test_routine_error_contained;
    Alcotest.test_case "two raw domains match the sequential pipeline" `Quick
      test_two_domain_pipeline_matches_sequential;
    Alcotest.test_case "keys keep semantic differences" `Quick test_ccache_keys_distinguish;
    Alcotest.test_case "FNV-1a key hash is pinned" `Quick test_ccache_fnv1a_pinned;
    Alcotest.test_case "cache hit, miss, overwrite and eviction" `Quick test_ccache_hit_miss_evict;
    Alcotest.test_case "flag fingerprints never cross-serve" `Quick
      test_ccache_fingerprint_hit_miss;
    Alcotest.test_case "hash collision verifies to a miss" `Quick test_ccache_collision_verifies;
    Alcotest.test_case "two domains share one cache safely" `Quick test_ccache_concurrent_access;
    Alcotest.test_case "persisted tier round-trips" `Quick test_ccache_persist_round_trip;
    Alcotest.test_case "persisted tier honours load capacity" `Quick
      test_ccache_persist_capacity;
    Alcotest.test_case "corrupted persisted tier loads cold" `Quick test_ccache_corrupt_loads_cold;
    Alcotest.test_case "parsed-routine keys are pinned" `Quick test_ccache_parsed_keys_pinned;
  ]
