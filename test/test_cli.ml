(* The gvnopt driver's exit-code contract (documented in bin/gvnopt.ml):
   0 on a clean run, 1 on diagnostics at or above the failure threshold,
   2 on usage or parse errors. The binary is a declared test dependency, so
   it sits next to the test executable's directory in the build tree. *)

let gvnopt = Helpers.repo_path (Filename.concat "bin" "gvnopt.exe")

let write_tmp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("gvnopt_cli_" ^ name) in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let run args =
  Sys.command (Filename.quote_command gvnopt ~stdout:Filename.null ~stderr:Filename.null args)

(* Like [run], but capture stdout for output-format checks. *)
let run_capture args =
  let out = Filename.temp_file "gvnopt_cli" ".out" in
  let code = Sys.command (Filename.quote_command gvnopt ~stdout:out ~stderr:Filename.null args) in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let clean_mc () = write_tmp "clean.mc" "routine f(a) { return a + 1; }\n"

let test_exit_clean () =
  let p = clean_mc () in
  Alcotest.(check int) "plain run" 0 (run [ p ]);
  Alcotest.(check int) "--check" 0 (run [ "--check"; p ]);
  (* Like --validate, the bare flag takes its default mode; trailing
     position keeps the file from being parsed as the mode. *)
  Alcotest.(check int) "bare --analyze" 0 (run [ p; "--analyze" ])

let test_exit_analyze () =
  let p = clean_mc () in
  Alcotest.(check int) "--analyze=gvn" 0 (run [ "--analyze=gvn"; p ]);
  Alcotest.(check int) "--analyze=const" 0 (run [ "--analyze=const"; p ]);
  Alcotest.(check int) "--analyze=range" 0 (run [ "--analyze=range"; p ]);
  Alcotest.(check int) "--analyze=all" 0 (run [ "--analyze=all"; p ]);
  Alcotest.(check int) "bad analyze mode" 2 (run [ "--analyze=bogus"; p ])

let test_analyze_output () =
  let p = write_tmp "facts.mc" "routine f(a) { x = 3; y = x + 4; return y; }\n" in
  let code, out = run_capture [ "--analyze=all"; p ] in
  Alcotest.(check int) "exit 0" 0 code;
  (* The output-format contract: per-analysis fact sections, per-definition
     facts rendered through the printer, and the cross-check summary. *)
  Alcotest.(check bool) "const section" true (contains out "--- const facts ---");
  Alcotest.(check bool) "range section" true (contains out "--- range facts ---");
  Alcotest.(check bool) "const fact" true (contains out ";; const 7");
  Alcotest.(check bool) "range fact" true (contains out ";; [7, 7]");
  Alcotest.(check bool) "crosscheck line" true (contains out "crosscheck:");
  Alcotest.(check bool) "no contradictions" true (contains out "0 contradiction(s)")

let test_exit_validate_clean () =
  let p = clean_mc () in
  Alcotest.(check int) "--validate=all" 0 (run [ "--validate=all"; p ]);
  Alcotest.(check int) "--validate=witness" 0 (run [ "--validate=witness"; p ]);
  Alcotest.(check int) "--validate=diff" 0 (run [ "--validate=diff"; p ]);
  (* The bare flag takes its default value; trailing position keeps the
     file from being parsed as the mode. *)
  Alcotest.(check int) "bare --validate" 0 (run [ p; "--validate" ])

let test_exit_werror () =
  let p = write_tmp "divzero.mc" "routine f(a) { x = 0; return a / x; }\n" in
  (* The guaranteed division by zero is a Warning-severity lint: reported
     but clean without --Werror, a failure with it. (Opportunity-tier lints
     like dead code are Info and never trip --Werror.) *)
  Alcotest.(check int) "--lint alone stays clean" 0 (run [ "--lint"; p ]);
  Alcotest.(check int) "--lint --Werror fails" 1 (run [ "--lint"; "--Werror"; p ]);
  let dead = write_tmp "dead.mc" "routine f(a) { dead = a * 37; return a; }\n" in
  Alcotest.(check int) "Info lints pass --Werror" 0 (run [ "--lint"; "--Werror"; dead ])

let test_exit_werror_overflow () =
  (* The other guaranteed division fault: min_int / -1 overflows the
     machine word (min_int on the 63-bit IR is -2^62, spelled without a
     negative-literal edge case). Same lint, same Warning severity. *)
  let p =
    write_tmp "ovf.mc"
      "routine f(a) { n = -4611686018427387903 - 1; d = -1; return n / d; }\n"
  in
  let code, out = run_capture [ "--lint"; p ] in
  Alcotest.(check int) "--lint alone stays clean" 0 code;
  Alcotest.(check bool)
    "overflow attributed to lint-div-by-zero" true
    (contains out "lint-div-by-zero" && contains out "overflows");
  Alcotest.(check int) "--lint --Werror fails" 1 (run [ "--lint"; "--Werror"; p ])

let test_rules_modes () =
  (* --rules=dump and --rules=verify are standalone: no input file. *)
  let code, out = run_capture [ "--rules=dump" ] in
  Alcotest.(check int) "--rules=dump exits 0" 0 code;
  Alcotest.(check bool)
    "dump prints the catalog" true
    (contains out "and-self" && contains out "demorgan-and" && contains out "->");
  let code, out = run_capture [ "--rules=verify" ] in
  Alcotest.(check int) "--rules=verify exits 0 on the shipped catalog" 0 code;
  Alcotest.(check bool)
    "verify reports a clean summary" true
    (contains out "0 failed" && contains out "0 fatal lints");
  (* --rules=off still optimizes, but without the catalog: the idempotent
     And survives in the output. *)
  let p = write_tmp "idem.mc" "routine f(a) { return a & a; }\n" in
  let code, out = run_capture [ "--rules=off"; p ] in
  Alcotest.(check int) "--rules=off exits 0" 0 code;
  Alcotest.(check bool) "catalog disabled: a & a survives" true (contains out "& ");
  let code, out = run_capture [ p ] in
  Alcotest.(check int) "default run exits 0" 0 code;
  Alcotest.(check bool) "catalog enabled: a & a simplified" false (contains out "& ");
  (* Without a file, every other mode is a usage error. *)
  Alcotest.(check int) "optimize without FILE is exit 2" 2 (run [ "--rules=off" ]);
  Alcotest.(check int) "unknown mode is exit 2" 2 (run [ "--rules=frobnicate" ])

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go acc i =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (acc + 1) (i + nn)
    else go acc (i + 1)
  in
  go 0 0

let test_trace_output () =
  let p = write_tmp "traced.mc" "routine f(a) { x = a + 1; y = a + 1; return x + y; }\n" in
  let trace = Filename.temp_file "gvnopt_cli" ".trace.json" in
  Alcotest.(check int) "--trace exits clean" 0 (run [ "--trace=" ^ trace; p ]);
  let ic = open_in_bin trace in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove trace;
  Alcotest.(check bool) "traceEvents array" true (contains doc "\"traceEvents\": [");
  Alcotest.(check bool) "nothing dropped" true
    (contains doc "\"otherData\": {\"dropped\": \"0\"}");
  (* Balanced stream: as many begins as ends, and at least the spans the
     CLI promises (ssa construction, the pipeline and its passes, the GVN
     engine). *)
  let b = count_occurrences doc "\"ph\": \"B\"" and e = count_occurrences doc "\"ph\": \"E\"" in
  Alcotest.(check bool) "some spans recorded" true (b > 0);
  Alcotest.(check int) "begins match ends" b e;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true
        (contains doc (Printf.sprintf "\"name\": \"%s\"" name)))
    [ "parse"; "ssa"; "pipeline"; "gvn"; "pgvn.run"; "dce"; "simplify-cfg" ]

let test_metrics_output () =
  let p = clean_mc () in
  let code, out = run_capture [ "--metrics"; p ] in
  Alcotest.(check int) "--metrics exits clean" 0 code;
  Alcotest.(check bool) "metrics section" true (contains out "--- metrics ---");
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " reported") true (contains out name))
    [ "pgvn.passes"; "pgvn.instrs"; "pgvn.table_probes"; "pgvn.arena.live"; "pgvn.run_ns" ]

let test_schedule_modes () =
  let p = clean_mc () in
  (* Bare --schedule defaults to the legality check; trailing position
     keeps the file from being parsed as the mode. *)
  Alcotest.(check int) "bare --schedule" 0 (run [ p; "--schedule" ]);
  let code, out = run_capture [ "--schedule=check"; p ] in
  Alcotest.(check int) "--schedule=check" 0 code;
  Alcotest.(check bool) "check summary line" true (contains out "schedule check: 0 violation(s)");
  let code, out = run_capture [ "--schedule=dump"; p ] in
  Alcotest.(check int) "--schedule=dump" 0 code;
  Alcotest.(check bool) "dump prints ranges" true (contains out "early b");
  Alcotest.(check bool) "dump prints stats" true (contains out "schedule:");
  (* The corpus LICM shape: the invariant add inside the loop is lintable. *)
  let licm =
    write_tmp "licm.mc"
      "routine f(a, n) { i = 0; s = 0; while (i < n) { s = s + a * 3; i = i + 1; } return s; }\n"
  in
  let code, out = run_capture [ "--schedule=lint"; licm ] in
  Alcotest.(check int) "--schedule=lint" 0 code;
  Alcotest.(check bool) "loop-invariant lint" true (contains out "lint-loop-invariant");
  Alcotest.(check int) "bad schedule mode" 2 (run [ "--schedule=bogus"; p ]);
  Alcotest.(check int) "--analyze and --schedule conflict" 2
    (run [ "--analyze"; "--schedule"; p ])

(* The parallel-service surface: --jobs batches, the --serve conflicts,
   and the --cache persisted tier. The pins here are the CLI contract; the
   library-level semantics live in test_par.ml. *)

let test_jobs_contract () =
  let p = clean_mc () in
  Alcotest.(check int) "--jobs=1" 0 (run [ "--jobs=1"; p ]);
  Alcotest.(check int) "--jobs=3" 0 (run [ "--jobs=3"; p ]);
  Alcotest.(check int) "--jobs=0 rejected" 2 (run [ "--jobs=0"; p ]);
  Alcotest.(check int) "negative jobs rejected" 2 (run [ "--jobs=-2"; p ]);
  Alcotest.(check int) "non-numeric jobs rejected" 2 (run [ "--jobs=many"; p ]);
  (* Past the runtime's domain limit: refused before any domain starts. *)
  Alcotest.(check int) "--jobs=129 rejected" 2 (run [ "--jobs=129"; p ])

let test_serve_conflicts () =
  let p = clean_mc () in
  (* [--serve file.mc] parses the file as the socket path; binding refuses
     to clobber an existing non-socket file, preserving the old pin. *)
  Alcotest.(check int) "--serve with a FILE" 2 (run [ "--serve"; p ]);
  Alcotest.(check int) "--serve with --metrics" 2 (run [ "--serve"; "--metrics" ]);
  Alcotest.(check int) "--serve=PATH refuses a non-socket file" 2 (run [ "--serve=" ^ p ])

(* Client-side framing, the same on stdin and on the socket: 4-byte
   big-endian length, then the payload. *)
let frame payload =
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  Bytes.to_string hdr ^ payload

let put_frame oc payload =
  output_string oc (frame payload);
  flush oc

let get_frame ic =
  let hdr = really_input_string ic 4 in
  let b i = Char.code hdr.[i] in
  really_input_string ic ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)

(* Run [gvnopt --serve] with [input] as its stdin: the exit code, the
   response frames' payloads and stderr. *)
let serve_stdin input =
  let req = write_tmp "serve.in" input in
  let out = Filename.temp_file "gvnopt_cli" ".out" in
  let err = Filename.temp_file "gvnopt_cli" ".err" in
  let code =
    Sys.command (Filename.quote_command gvnopt ~stdin:req ~stdout:out ~stderr:err [ "--serve" ])
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let resp = read out and stderr = read err in
  List.iter Sys.remove [ req; out; err ];
  let rec frames off =
    if off >= String.length resp then []
    else
      let len = Int32.to_int (String.get_int32_be resp off) in
      String.sub resp (off + 4) len :: frames (off + 4 + len)
  in
  (code, frames 0, stderr)

(* The stdin transport: good frames are answered with status '0' and the
   batch-mode bytes; EOF anywhere inside a frame, header included, is a
   truncated frame (exit 2), and an oversized length is refused from the
   header alone. *)
let test_serve_stdin_stream () =
  let f = "routine f(a) { return a + 1; }\n" in
  let g = "routine g(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }\n" in
  let batch src = snd (run_capture [ write_tmp "serve_batch.mc" src ]) in
  let code, resp, _ = serve_stdin (frame f ^ frame g) in
  Alcotest.(check int) "two good frames exit 0" 0 code;
  Alcotest.(check (list string)) "status '0' then the batch-mode output"
    [ "0" ^ batch f; "0" ^ batch g ] resp;
  let code, _, err = serve_stdin "\x00\x00" in
  Alcotest.(check int) "a 2-byte header exits 2" 2 code;
  Alcotest.(check bool) "a 2-byte header is a truncated frame" true (contains err "truncated frame");
  let code, _, _ = serve_stdin (String.sub (frame f) 0 10) in
  Alcotest.(check int) "a short body exits 2" 2 code;
  (* 64 MiB + 1 with no body: reading the body would report a truncated
     frame, so the limit message shows it was never read. *)
  let code, _, err = serve_stdin "\x04\x00\x00\x01" in
  Alcotest.(check int) "an oversized length exits 2" 2 code;
  Alcotest.(check bool) "refused before the body is read" true (contains err "exceeds the limit")

let test_serve_socket_round_trip () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gvnopt_cli_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let null = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process gvnopt [| gvnopt; "--serve=" ^ sock |] null null Unix.stderr
  in
  Unix.close null;
  (* The server binds before accepting: the socket file is the ready signal. *)
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "server never bound its socket"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The file appears at bind, a hair before listen: retry a refused
     connect rather than flaking on the race. *)
  let rec connect n =
    try Unix.connect fd (Unix.ADDR_UNIX sock)
    with Unix.Unix_error (Unix.ECONNREFUSED, _, _) when n > 0 ->
      Unix.sleepf 0.05;
      connect (n - 1)
  in
  connect 100;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  put_frame oc "routine f(a) { return a + 1; }";
  let r = get_frame ic in
  Alcotest.(check char) "clean request status" '0' r.[0];
  Alcotest.(check bool) "framed body is the batch output" true (contains r "=== f ===");
  put_frame oc "routine broken( {";
  let r = get_frame ic in
  Alcotest.(check char) "parse-error status" '2' r.[0];
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  close_in ic;
  (* Worst status served becomes the exit code; the socket file is gone. *)
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "exits with the worst status" true (status = Unix.WEXITED 2);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock)

(* The GCM surface: mode exit codes and output, and the persisted cache
   never cross-serving across the flag. *)

let licm_mc () =
  write_tmp "gcm_licm.mc"
    "routine f(a, n) { i = 0; s = 0; while (i < n) { s = s + a * 3; i = i + 1; } return s; }\n"

let test_gcm_modes () =
  let p = licm_mc () in
  (* Bare --gcm defaults to the certified-and-diffed rewrite; trailing
     position keeps the file from being parsed as the mode. *)
  let code, out = run_capture [ p; "--gcm" ] in
  Alcotest.(check int) "bare --gcm" 0 code;
  Alcotest.(check bool) "motion summary" true
    (contains out "gcm: 1 value(s) moved (1 hoisted, 0 sunk)");
  Alcotest.(check bool) "behavioral diff ran" true
    (contains out "gcm diff: observably equivalent");
  let code, out = run_capture [ "--gcm=dump"; p ] in
  Alcotest.(check int) "--gcm=dump" 0 code;
  Alcotest.(check bool) "dump lists the hoist" true (contains out "-> b0 [hoist]");
  let code, out = run_capture [ "--gcm=check"; p ] in
  Alcotest.(check int) "--gcm=check" 0 code;
  Alcotest.(check bool) "check diffs the rewrite" true
    (contains out "gcm diff: observably equivalent");
  Alcotest.(check int) "bad gcm mode" 2 (run [ "--gcm=bogus"; p ]);
  Alcotest.(check int) "--gcm and --schedule conflict" 2 (run [ p; "--gcm"; "--schedule" ]);
  Alcotest.(check int) "--gcm and --analyze conflict" 2 (run [ p; "--gcm"; "--analyze" ]);
  Alcotest.(check int) "--gcm and --pred conflict" 2 (run [ p; "--gcm"; "--pred" ])

let test_gcm_cache_isolation () =
  (* One persisted cache, the same routine with and without --gcm: the
     flag is part of the fingerprint, so neither run is ever served the
     other's output. *)
  let p = licm_mc () in
  let cache = Filename.temp_file "gvnopt_cli" ".ccache" in
  Sys.remove cache;
  let code, plain_cold = run_capture [ "--cache=" ^ cache; p ] in
  Alcotest.(check int) "plain cold run" 0 code;
  let code, gcm_cold = run_capture [ "--cache=" ^ cache; "--gcm=dump"; p ] in
  Alcotest.(check int) "gcm cold run" 0 code;
  Alcotest.(check bool) "gcm run hoists" true (contains gcm_cold "[hoist]");
  Alcotest.(check bool) "plain run does not" false (contains plain_cold "[hoist]");
  let _, plain_warm = run_capture [ "--cache=" ^ cache; p ] in
  let _, gcm_warm = run_capture [ "--cache=" ^ cache; "--gcm=dump"; p ] in
  Alcotest.(check string) "plain warm identical to cold" plain_cold plain_warm;
  Alcotest.(check string) "gcm warm identical to cold" gcm_cold gcm_warm;
  Sys.remove cache

let test_pred_modes () =
  let chain =
    write_tmp "chain.mc"
      "routine c(a, b, c) { r = 0; if (a <= b) { if (b <= c) { if (a <= c) { r = 1; } } } \
       return r; }\n"
  in
  (* Bare --pred defaults to the cross-check; trailing position keeps the
     file from being parsed as the mode. *)
  let code, out = run_capture [ chain; "--pred" ] in
  Alcotest.(check int) "bare --pred" 0 code;
  Alcotest.(check bool) "crosscheck line" true (contains out "crosscheck:");
  Alcotest.(check bool) "no contradictions" true (contains out "0 contradiction(s)");
  let code, out = run_capture [ "--pred=stats"; chain ] in
  Alcotest.(check int) "--pred=stats" 0 code;
  Alcotest.(check bool) "counter line" true (contains out "pred: ");
  Alcotest.(check bool) "closure decided the chained guard" false (contains out "pred: 0 queries");
  let code, out = run_capture [ "--pred=dump"; chain ] in
  Alcotest.(check int) "--pred=dump" 0 code;
  Alcotest.(check bool) "facts section" true (contains out "--- dominating facts ---");
  Alcotest.(check int) "bad pred mode" 2 (run [ "--pred=bogus"; chain ]);
  Alcotest.(check int) "--pred and --analyze conflict" 2 (run [ chain; "--pred"; "--analyze" ]);
  Alcotest.(check int) "--pred and --schedule conflict" 2
    (run [ chain; "--pred"; "--schedule" ])

(* The usage examples of bin/gvnopt.ml's header and the README, verbatim. *)
let test_usage_examples () =
  let p = licm_mc () in
  List.iter
    (fun args -> Alcotest.(check int) (String.concat " " args) 0 (run args))
    [ [ p; "--analyze" ]; [ "--analyze=all"; p ]; [ "--preset"; "click"; "--stats"; p ];
      [ "--run"; "1,2"; p ]; [ p; "--schedule" ]; [ "--schedule=dump"; p ];
      [ "--schedule=lint"; p ]; [ p; "--gcm" ]; [ "--gcm=check"; p ]; [ "--gcm=dump"; p ];
      [ p; "--pred" ]; [ "--pred=dump"; p ]; [ "--pred=stats"; p ]; [ "--jobs=4"; p; p ] ]

(* A bare optional flag (--analyze, --schedule, --gcm, --pred) follows the
   file: placed before it, cmdliner reads the path as the mode. *)
let test_flag_before_file () =
  let p = licm_mc () in
  Alcotest.(check int) "--gcm FILE" 2 (run [ "--gcm"; p ]);
  Alcotest.(check int) "--schedule FILE" 2 (run [ "--schedule"; p ])

let test_cache_round_trip () =
  let p = clean_mc () in
  let cache = Filename.temp_file "gvnopt_cli" ".ccache" in
  Sys.remove cache;
  let code1, cold = run_capture [ "--cache=" ^ cache; p ] in
  Alcotest.(check int) "cold run" 0 code1;
  Alcotest.(check bool) "cache file written" true (Sys.file_exists cache);
  let code2, warm = run_capture [ "--cache=" ^ cache; p ] in
  Alcotest.(check int) "warm run" 0 code2;
  Alcotest.(check string) "cache hit answers identically" cold warm;
  (* Corruption degrades to a cold cache, never an error. *)
  let oc = open_out_bin cache in
  output_string oc "scribble";
  close_out oc;
  let code3, recovered = run_capture [ "--cache=" ^ cache; p ] in
  Alcotest.(check int) "corrupted cache still compiles" 0 code3;
  Alcotest.(check string) "recompiled output identical" cold recovered;
  Sys.remove cache

(* Golden output pins: gvnopt's exit code and full stdout over the example
   programs plus the hand-written corpus (one batch), per flag set, byte
   for byte. Snapshots live in test/golden/NAME.out; after an intended
   output change, regenerate them with
     GVNOPT_GOLDEN_DIR=$PWD/test/golden dune test --force
   and review the diff. *)

let golden_sets =
  [
    ("default", []);
    ("stats", [ "--stats" ]);
    ("gcm-dump", [ "--gcm=dump" ]);
    ("check-validate-gcm", [ "--check"; "--validate=all"; "--gcm=check" ]);
    ("lint-analyze", [ "--lint"; "--analyze=all" ]);
    ("pred-stats", [ "--pred=stats" ]);
    ("schedule-dump", [ "--schedule=dump" ]);
    ("pruning-minimal", [ "--pruning=minimal"; "--stats" ]);
    ("pruning-pruned", [ "--pruning=pruned"; "--stats" ]);
    ("preset-pessimistic", [ "--preset=pessimistic"; "--stats" ]);
    ("preset-dense", [ "--preset=dense"; "--stats" ]);
    ("complete", [ "--complete"; "--stats" ]);
    ("validate-witness", [ "--validate=witness" ]);
    ("validate-diff-gcm-dump", [ "--validate=diff"; "--gcm=dump" ]);
    ("gcm-check", [ "--gcm=check" ]);
  ]

let golden_dir = Helpers.repo_path (Filename.concat "test" "golden")

let golden_inputs () =
  let dir = Helpers.repo_path (Filename.concat "examples" "programs") in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".mc")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  examples
  @ [ write_tmp "golden_corpus.mc" (String.concat "\n" (List.map snd Workload.Corpus.all_named)) ]

let golden_run args =
  let code, out = run_capture (args @ golden_inputs ()) in
  Printf.sprintf "exit %d\n%s" code out

let test_golden (name, args) () =
  let got = golden_run args in
  match Sys.getenv_opt "GVNOPT_GOLDEN_DIR" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir (name ^ ".out")) in
      output_string oc got;
      close_out oc
  | None ->
      let ic = open_in_bin (Filename.concat golden_dir (name ^ ".out")) in
      let want = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) (name ^ " snapshot") want got;
      (* A parallel batch must print the sequential snapshot, byte for byte. *)
      if name = "default" || name = "check-validate-gcm" then
        Alcotest.(check string) (name ^ " under --jobs=2") want (golden_run ("--jobs=2" :: args))

(* A hit is a cold compile, byte for byte: a batch that repeats every
   example and corpus routine (names unchanged) must print the single-copy
   output twice, answering each repeat from the in-memory cache. *)
let test_cache_hit_equals_cold () =
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let once = String.concat "\n" (List.map read (golden_inputs ())) in
  let routines = Ir.Parser.parse_program once in
  let n = List.length routines and distinct = List.length (List.sort_uniq compare routines) in
  let twice = write_tmp "twice.mc" (once ^ "\n" ^ once) in
  let code, single = run_capture [ "--jobs=1"; write_tmp "once.mc" once ] in
  Alcotest.(check int) "single copy exits 0" 0 code;
  let code, seq = run_capture [ "--jobs=1"; twice ] in
  Alcotest.(check int) "--jobs=1 exits 0" 0 code;
  Alcotest.(check string) "--jobs=1 prints the single-copy output twice" (single ^ single) seq;
  let code, par = run_capture [ "--jobs=2"; twice ] in
  Alcotest.(check int) "--jobs=2 exits 0" 0 code;
  Alcotest.(check string) "--jobs=2 matches --jobs=1" seq par;
  let counter out name =
    match Str.search_forward (Str.regexp (Str.quote name ^ " \\([0-9]+\\)")) out 0 with
    | _ -> int_of_string (Str.matched_group 1 out)
    | exception Not_found -> 0
  in
  (* The single copy already repeats a routine, so count distinct ones. *)
  let _, m = run_capture [ "--jobs=1"; "--metrics"; twice ] in
  Alcotest.(check int) "--jobs=1: each distinct routine misses once" distinct
    (counter m "ccache.misses");
  Alcotest.(check int) "--jobs=1: every repeat hits" ((2 * n) - distinct)
    (counter m "ccache.hits");
  (* Under --jobs=2 both copies of a routine may compile at once, so only
     the lookup total is fixed. *)
  let _, m = run_capture [ "--jobs=2"; "--metrics"; twice ] in
  Alcotest.(check int) "--jobs=2: one lookup per routine" (2 * n)
    (counter m "ccache.hits" + counter m "ccache.misses")

let test_exit_parse_error () =
  let p = write_tmp "broken.mc" "routine f( { this is not mini-C" in
  Alcotest.(check int) "parse error" 2 (run [ p ])

let test_exit_usage_error () =
  let p = clean_mc () in
  Alcotest.(check int) "unknown flag" 2 (run [ "--frobnicate"; p ]);
  Alcotest.(check int) "bad validate mode" 2 (run [ "--validate=bogus"; p ]);
  Alcotest.(check int) "nonexistent input" 2 (run [ "/nonexistent/no-such-file.mc" ])

(* Like [run], but capture stderr for diagnostic checks. *)
let run_stderr args =
  let err = Filename.temp_file "gvnopt_cli" ".err" in
  let code = Sys.command (Filename.quote_command gvnopt ~stdout:Filename.null ~stderr:err args) in
  let s = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, s)

(* A literal above max_int is a lex error: batch mode exits 2 without an
   internal error, and the server answers it with status '2' and keeps
   serving. *)
let test_int_literal_out_of_range () =
  let bad = "routine f() { return 99999999999999999999; }\n" in
  let code, err = run_stderr [ write_tmp "huge.mc" bad ] in
  Alcotest.(check int) "batch exits 2" 2 code;
  Alcotest.(check bool) "a lex error" true (contains err "lex error");
  Alcotest.(check bool) "not an internal error" false (contains err "internal error");
  let good = "routine f(a) { return a + 1; }\n" in
  let code, resp, _ = serve_stdin (frame good ^ frame bad ^ frame good) in
  Alcotest.(check (list string)) "statuses good / bad / good" [ "0"; "2"; "0" ]
    (List.map (fun r -> String.sub r 0 1) resp);
  Alcotest.(check int) "serve exits 2" 2 code

(* Frontend diagnostics name the line and column of the error, in batch
   mode and in --serve error payloads. *)
let test_diagnostic_line_col () =
  let src = "routine f() { return 1 + ; }\nroutine g() { return @; }" in
  let path = write_tmp "linecol.mc" src in
  let code, err = run_stderr [ path ] in
  Alcotest.(check int) "batch exits 2" 2 code;
  Alcotest.(check string) "batch diagnostic"
    (path ^ ":2:22: lex error: unexpected character '@'\n") err;
  let _, resp, _ = serve_stdin (frame src ^ frame "routine f() { return 1 + ; }") in
  Alcotest.(check (list string)) "serve payloads"
    [
      "2<stdin>:2:22: lex error: unexpected character '@'\n";
      "2<stdin>:1:26: parse error: expected expression (found ;)\n";
    ]
    resp

(* A routine that names a parameter twice is a parse error at the second
   occurrence, in batch mode and with --run. *)
let test_duplicate_param () =
  let path = write_tmp "dup_param.mc" "routine g(a, a) { return a; }\n" in
  List.iter
    (fun args ->
      let code, err = run_stderr (args @ [ path ]) in
      Alcotest.(check int) "exits 2" 2 code;
      Alcotest.(check string) "diagnostic"
        (path ^ ":1:14: parse error: duplicate parameter name (found a)\n") err)
    [ []; [ "--run"; "1,2" ] ]

(* A switch with two default labels is a parse error at the second. *)
let test_duplicate_default () =
  let path =
    write_tmp "dup_default.mc"
      "routine f(a) { switch (a) { default: { a = 1; } default: { a = 2; } } return a; }\n"
  in
  List.iter
    (fun args ->
      let code, err = run_stderr (args @ [ path ]) in
      Alcotest.(check int) "exits 2" 2 code;
      Alcotest.(check string) "diagnostic"
        (path ^ ":1:49: parse error: duplicate default label (found default)\n") err)
    [ []; [ "--run"; "5" ] ]

(* [break] or [continue] with no enclosing while is a parse error at the
   keyword, in batch mode and under --serve, which answers the frame with
   status '2' and keeps serving. *)
let test_break_outside_loop () =
  let brk = "routine ok(a) { return a; }\nroutine bad(a) {\n  x = a;\n  break;\n  return x;\n}\n" in
  let cont = "routine f(a) {\n  switch (a) { case 1: { continue; } }\n  return a;\n}\n" in
  List.iter
    (fun (name, src, diag) ->
      let path = write_tmp name src in
      let code, err = run_stderr [ path ] in
      Alcotest.(check int) "exits 2" 2 code;
      Alcotest.(check string) "diagnostic" (path ^ diag) err)
    [
      ("break_outside.mc", brk, ":4:3: parse error: break outside a loop\n");
      ("continue_in_switch.mc", cont, ":2:26: parse error: continue outside a loop\n");
    ];
  let good = "routine g(a) { return a + 1; }\n" in
  let code, resp, _ = serve_stdin (frame good ^ frame brk ^ frame good) in
  Alcotest.(check (list string)) "statuses good / bad / good" [ "0"; "2"; "0" ]
    (List.map (fun r -> String.sub r 0 1) resp);
  Alcotest.(check string) "the error payload"
    "2<stdin>:4:3: parse error: break outside a loop\n" (List.nth resp 1);
  Alcotest.(check int) "serve exits 2" 2 code

let suite =
  [
    Alcotest.test_case "exit 0 on clean runs" `Quick test_exit_clean;
    Alcotest.test_case "--analyze mode exit codes" `Quick test_exit_analyze;
    Alcotest.test_case "--analyze=all output format" `Quick test_analyze_output;
    Alcotest.test_case "exit 0 under --validate" `Quick test_exit_validate_clean;
    Alcotest.test_case "exit 1 under --lint --Werror" `Quick test_exit_werror;
    Alcotest.test_case "min_int / -1 overflow lint under --Werror" `Quick
      test_exit_werror_overflow;
    Alcotest.test_case "--rules mode exit codes and output" `Quick test_rules_modes;
    Alcotest.test_case "--schedule mode exit codes and output" `Quick test_schedule_modes;
    Alcotest.test_case "--trace writes balanced Chrome JSON" `Quick test_trace_output;
    Alcotest.test_case "--metrics prints the engine snapshot" `Quick test_metrics_output;
    Alcotest.test_case "--jobs argument contract" `Quick test_jobs_contract;
    Alcotest.test_case "--serve flag conflicts" `Quick test_serve_conflicts;
    Alcotest.test_case "--serve=SOCKET round-trips over the socket" `Quick
      test_serve_socket_round_trip;
    Alcotest.test_case "--gcm mode exit codes and output" `Quick test_gcm_modes;
    Alcotest.test_case "--cache never cross-serves across --gcm" `Quick test_gcm_cache_isolation;
    Alcotest.test_case "--pred mode exit codes and output" `Quick test_pred_modes;
    Alcotest.test_case "documented usage examples" `Quick test_usage_examples;
    Alcotest.test_case "a bare mode flag before the file is a usage error" `Quick
      test_flag_before_file;
    Alcotest.test_case "--cache persisted tier round-trips" `Quick test_cache_round_trip;
    Alcotest.test_case "exit 2 on parse errors" `Quick test_exit_parse_error;
    Alcotest.test_case "exit 2 on usage errors" `Quick test_exit_usage_error;
    Alcotest.test_case "a cache hit prints the cold compile's bytes" `Quick
      test_cache_hit_equals_cold;
    Alcotest.test_case "--serve on stdin answers and rejects frames" `Quick
      test_serve_stdin_stream;
    Alcotest.test_case "an out-of-range literal is a lex error" `Quick
      test_int_literal_out_of_range;
    Alcotest.test_case "diagnostics print line and column" `Quick test_diagnostic_line_col;
  ]
  @ List.map
      (fun ((name, _) as set) ->
        Alcotest.test_case ("golden output: " ^ name) `Quick (test_golden set))
      golden_sets
  @ [
      Alcotest.test_case "duplicate parameter names are a parse error" `Quick test_duplicate_param;
      Alcotest.test_case "duplicate default labels are a parse error" `Quick
        test_duplicate_default;
      Alcotest.test_case "break and continue outside a loop are parse errors" `Quick
        test_break_outside_loop;
    ]
