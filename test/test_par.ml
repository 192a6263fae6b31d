(* The parallel compilation service (lib/par): the work-stealing domain
   pool's batch semantics, the corpus-wide determinism pin (parallel and
   sequential runs must render byte-identical output and merge to the same
   metrics), the content-addressed result cache's canonicalization and its
   two tiers, and the two-domain regression for the domain-local state the
   parallel audit converted (Rules.Engine's compiled tables, Infer's fault
   hook). *)

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

let test_pool_invalid_arguments () =
  Alcotest.check_raises "domains = 0" (Invalid_argument "Par.Pool.create: domains must be >= 1")
    (fun () -> ignore (Par.Pool.create ~domains:0 ()));
  let pool = Par.Pool.create ~domains:2 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Par.Pool.map: pool is shut down") (fun () ->
      ignore (Par.Pool.map pool (fun i -> i) [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Determinism: the whole (scaled) ten-benchmark corpus, optimized end to
   end sequentially and through a multi-domain pool, must produce
   byte-identical rendered routines and identical merged metrics. This is
   the library-level half of the driver's `--jobs` determinism contract. *)

let corpus_routines () =
  Workload.Suite.all ~scale:0.2 ()
  |> List.concat_map (fun (_, fs) -> fs)
  |> Array.of_list

let optimize_and_render f =
  let o = Obs.create () in
  let g = Helpers.optimize Pgvn.Config.full f in
  Obs.add o "par.test.routines" 1;
  Obs.add o "par.test.instrs" (Ir.Func.num_instrs g);
  (Ir.Printer.to_string g, o)

let test_corpus_determinism () =
  let routines = corpus_routines () in
  Alcotest.(check bool) "corpus is non-trivial" true (Array.length routines > 50);
  let seq = Array.map optimize_and_render routines in
  let par =
    Par.Pool.with_pool ~domains:3 (fun pool -> Par.Pool.map pool optimize_and_render routines)
  in
  Array.iteri
    (fun i (text, _) ->
      let ptext, _ = par.(i) in
      if not (String.equal text ptext) then
        Alcotest.failf "routine %d: parallel output diverges from sequential" i)
    seq;
  (* Per-routine contexts merged in input order: the aggregate report must
     not depend on which domain ran which routine. *)
  let merged results =
    let dst = Obs.create () in
    Array.iter (fun (_, o) -> Obs.merge_into ~dst o) results;
    Fmt.str "%a" Obs.pp_metrics dst
  in
  Alcotest.(check string) "merged metrics reports identical" (merged seq) (merged par)

(* ------------------------------------------------------------------ *)
(* Two-domain pipeline regression: the state the parallelism audit made
   domain-local — Rules.Engine's shared compiled tables and the rule fire
   counters behind Driver.run's per-run deltas — must give each domain the
   same answers it gives a sequential run. Raw Domain.spawn (no pool) so
   the test pins the library invariant, not the pool's scheduling. *)

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
(* Ccache: canonicalization.                                           *)

(* A diamond built twice with permuted block creation order (and permuted
   instruction-id allocation): the canonical form must erase the layout. *)
let diamond ~permuted =
  let b = Ir.Builder.create ~name:"d" ~nparams:1 in
  let entry = Ir.Builder.add_block b in
  let bt, bf, join =
    if permuted then
      let join = Ir.Builder.add_block b in
      let bf = Ir.Builder.add_block b in
      let bt = Ir.Builder.add_block b in
      (bt, bf, join)
    else
      let bt = Ir.Builder.add_block b in
      let bf = Ir.Builder.add_block b in
      let join = Ir.Builder.add_block b in
      (bt, bf, join)
  in
  let p = Ir.Builder.param b entry 0 in
  let z = Ir.Builder.const b entry 0 in
  let c = Ir.Builder.cmp b entry Ir.Types.Lt p z in
  let et, ef = Ir.Builder.branch b entry c ~ift:bt ~iff:bf in
  let vt = Ir.Builder.const b bt 1 in
  let ej_t = Ir.Builder.jump b bt ~dst:join in
  let vf = Ir.Builder.const b bf 2 in
  let ej_f = Ir.Builder.jump b bf ~dst:join in
  ignore et;
  ignore ef;
  let phi = Ir.Builder.phi b join in
  Ir.Builder.set_phi_arg b ~phi ~edge:ej_t vt;
  Ir.Builder.set_phi_arg b ~phi ~edge:ej_f vf;
  Ir.Builder.ret b join phi;
  Ir.Builder.finish b

let test_ccache_canonical_block_permutation () =
  let a = diamond ~permuted:false and b = diamond ~permuted:true in
  Alcotest.(check string)
    "block layout erased" (Par.Ccache.canonical_form a) (Par.Ccache.canonical_form b);
  let ka = Par.Ccache.key_of a and kb = Par.Ccache.key_of b in
  Alcotest.(check int) "hashes agree" ka.Par.Ccache.khash kb.Par.Ccache.khash

let test_ccache_canonical_distinguishes () =
  let f = func_of_src "routine F(A) { return A + 1; }" in
  let g = func_of_src "routine F(A) { return A + 2; }" in
  Alcotest.(check bool) "different bodies differ" false
    (String.equal (Par.Ccache.canonical_form f) (Par.Ccache.canonical_form g));
  (* The fingerprint folds configuration into the key: same routine,
     different flags, different key. *)
  let k1 = Par.Ccache.key_of ~fingerprint:"flags=a" f in
  let k2 = Par.Ccache.key_of ~fingerprint:"flags=b" f in
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
  Alcotest.(check int) "bad count" 0 (cold_from "pgvn-ccache/1\nfive\n" "badcount.bin");
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
    Alcotest.test_case "single-domain pool degrades to Array.map" `Quick
      test_pool_single_domain_fallback;
    Alcotest.test_case "leftmost task exception is re-raised" `Quick test_pool_exception_leftmost;
    Alcotest.test_case "pool argument and lifecycle errors" `Quick test_pool_invalid_arguments;
    Alcotest.test_case "parallel == sequential over the corpus" `Slow test_corpus_determinism;
    Alcotest.test_case "two raw domains match the sequential pipeline" `Quick
      test_two_domain_pipeline_matches_sequential;
    Alcotest.test_case "canonical form erases block layout" `Quick
      test_ccache_canonical_block_permutation;
    Alcotest.test_case "canonical form keeps semantic differences" `Quick
      test_ccache_canonical_distinguishes;
    Alcotest.test_case "FNV-1a key hash is pinned" `Quick test_ccache_fnv1a_pinned;
    Alcotest.test_case "cache hit, miss, overwrite and eviction" `Quick test_ccache_hit_miss_evict;
    Alcotest.test_case "flag fingerprints never cross-serve" `Quick
      test_ccache_fingerprint_hit_miss;
    Alcotest.test_case "hash collision verifies to a miss" `Quick test_ccache_collision_verifies;
    Alcotest.test_case "two domains share one cache safely" `Quick test_ccache_concurrent_access;
    Alcotest.test_case "persisted tier round-trips" `Quick test_ccache_persist_round_trip;
    Alcotest.test_case "corrupted persisted tier loads cold" `Quick test_ccache_corrupt_loads_cold;
  ]
