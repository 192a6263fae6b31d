(* gvnopt: parse mini-C files, run predicated global value numbering under
   a chosen configuration, and report — or rewrite and print — the routines.

     gvnopt file.mc                        optimize and print every routine
     gvnopt file.mc --analyze              GVN facts only (no rewriting)
     gvnopt --analyze=all file.mc          + const/range facts + static
                                           cross-check of the GVN claims
     gvnopt --preset click --stats file.mc
     gvnopt --run 1,2,3 file.mc            interpret (before and after)
     gvnopt --check file.mc                verify IR invariants before/after
     gvnopt --lint --Werror file.mc        + lint tier, warnings fail the run
     gvnopt --validate=all file.mc         certify every rewrite (translation
                                           validation: witness audit + diff)
     gvnopt --trace=out.json file.mc       write a Chrome-trace JSON profile
                                           (chrome://tracing, Perfetto)
     gvnopt --metrics file.mc              print the engine metrics snapshot
     gvnopt --rules=dump                   print the rewrite-rule catalog
     gvnopt --rules=verify                 run the rule-soundness verifier
     gvnopt --rules=off file.mc            optimize without the rule catalog
     gvnopt file.mc --schedule             certify the identity placement
                                           with the schedule-legality checker
     gvnopt --schedule=dump file.mc        per-value early/best/late blocks
                                           and speculation safety
     gvnopt --schedule=lint file.mc        hoist/sink opportunity lints
     gvnopt file.mc --gcm                  global code motion after GVN:
                                           certified placement rewrite +
                                           observable-behavior diff
     gvnopt --gcm=dump file.mc             + every move (hoist/sink)
     gvnopt --jobs=4 a.mc b.mc c.mc        batch mode: routines fan out
                                           across a 4-domain pool
     gvnopt file.mc --pred                 enable the multi-fact implication
                                           closure and cross-check its
                                           verdicts against intervals and
                                           the single-fact walk
     gvnopt --pred=dump file.mc            + each block's dominating facts
     gvnopt --pred=stats file.mc           + the closure counters
     gvnopt --serve --jobs=2               compilation service: length-
                                           prefixed routines on stdin,
                                           framed results on stdout
     gvnopt --serve=/tmp/gvn.sock          the same protocol on a Unix-
                                           domain socket (single client)
     gvnopt --cache=gvn.cache file.mc      persist the content-addressed
                                           result cache across invocations

   Exit codes: 0 clean; 1 diagnostics at or above the failure threshold
   (verifier errors, --Werror'd warnings, rejected rewrites, --run
   disagreement, a refuted rule under --rules=verify, a schedule-legality
   violation under --schedule=check, a refuted GCM placement or behavior
   diff under --gcm); 2 usage or parse error, or an internal error in a
   routine (reported in its text; the other routines still run). In batch
   mode over several files the exit code is the worst per-file code; in
   --serve mode it is the worst per-request status. *)

open Cmdliner
open Cli

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --rules sub-modes: dump and verify are standalone (no input file);
   off runs the pipeline with the declarative catalog disabled. *)
type rules_mode = Rdump | Rverify | Roff

(* A flag's named modes; an unknown name is a usage error listing them. *)
let mode_conv what modes =
  let parse s =
    match List.assoc_opt s modes with
    | Some m -> Ok m
    | None ->
        let names = String.concat ", " (List.map fst modes) in
        Error (`Msg (Printf.sprintf "unknown %s %S (%s)" what s names))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (fst (List.find (fun (_, m') -> m' = m) modes)))

(* An optional-value flag: given bare it takes [bare], [--flag=MODE] names one. *)
let mode_flag names modes ~bare ~doc =
  Arg.(value & opt ~vopt:(Some bare) (some modes) None & info names ~doc)

let analyze_conv =
  Compile.(mode_conv "analysis" [ ("gvn", Agvn); ("const", Aconst); ("range", Arange); ("all", Aall) ])

let schedule_conv =
  Compile.(mode_conv "schedule mode" [ ("dump", Sdump); ("check", Scheck); ("lint", Slint) ])

let pred_conv = Compile.(mode_conv "pred mode" [ ("check", Pcheck); ("dump", Pdump); ("stats", Pstats) ])
let gcm_conv = Compile.(mode_conv "gcm mode" [ ("check", Gcheck); ("dump", Gdump) ])
let rules_conv = mode_conv "rules mode" [ ("dump", Rdump); ("verify", Rverify); ("off", Roff) ]

let validate_conv =
  mode_conv "validation mode" Validate.[ ("witness", Witness); ("diff", Diff); ("all", All) ]

let dump_rules () =
  List.iter (fun r -> Fmt.pr "%a@." Rules.Pattern.pp_rule r) Rules.catalog;
  Fmt.pr "%d rules@." (List.length Rules.catalog);
  0

(* Deterministic seed: the CI gate must fail reproducibly. *)
let verify_rules () =
  let report = Rules.Verify.verify_all ~seed:0x5eed Rules.catalog in
  Fmt.pr "%a@." Rules.Verify.pp_report report;
  if Rules.Verify.ok report then 0 else 1

(* The preset and pruning vocabularies live in the shared [Cli_options]
   module (bench/main.ml resolves through the same tables). *)
let result_conv of_string pp = Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (of_string s)), pp)
let preset_conv = result_conv Cli_options.preset_of_string (fun ppf _ -> Fmt.string ppf "<preset>")

let pruning_conv =
  result_conv Cli_options.pruning_of_string (fun ppf p ->
      Fmt.string ppf (Ssa.Construct.pruning_to_string p))

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > Par.Pool.max_domains ->
        Error (`Msg (Printf.sprintf "JOBS must be <= %d" Par.Pool.max_domains))
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "JOBS must be >= 1")
    | None -> Error (`Msg "expected an integer JOBS count")
  in
  Arg.conv (parse, Fmt.int)

(* Batch mode: one request per file, in order. A file that fails to parse
   reports on stderr and contributes exit 2; the rest of the batch still
   runs. *)
let run_batch ~opts ~pool ~cache ~obs paths =
  let worst =
    List.fold_left
      (fun worst path ->
        match Compile.request ~opts ~pool ~cache ~obs ~path (read_file path) with
        | Ok (status, text) ->
            print_string text;
            max worst status
        | Error diag ->
            Fmt.epr "%s@." diag;
            2)
      0 paths
  in
  flush stdout;
  worst

let serve ~opts ~pool ~cache ~obs ic oc =
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  Compile.serve_frames ~opts ~pool ~cache ~obs ic oc

(* --serve=SOCKET: the same protocol over a Unix-domain socket. The server
   binds the path (replacing a stale socket file), accepts a single client,
   serves its frames until the client shuts the connection down, and exits
   with the worst status served — the socket-transport mirror of the
   stdin/stdout contract, byte-identical framing in both directions. The
   socket file is removed on exit. A stale socket file at the path is
   replaced; anything else there is refused (exit 2) — a mistyped
   [--serve file.mc] must not clobber a source file. *)
let serve_socket ~opts ~pool ~cache ~obs path =
  match
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> failwith "the path exists and is not a socket"
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 1;
    sock
  with
  | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "gvnopt: --serve=%s: %s@." path (Unix.error_message e);
      2
  | exception Failure msg ->
      Fmt.epr "gvnopt: --serve=%s: %s@." path msg;
      2
  | sock ->
      let fd, _ = Unix.accept sock in
      let code =
        serve ~opts ~pool ~cache ~obs (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd)
      in
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      code

let cmd =
  (* Optional at the cmdliner layer only: --rules=dump|verify and --serve
     run without input files; every other mode errors out (exit 2) when
     none is given, preserving the old required-positional contract. *)
  let paths = Arg.(value & pos_all file [] & info [] ~docv:"FILE.mc") in
  let preset =
    Arg.(value & opt preset_conv Pgvn.Config.full & info [ "preset"; "p" ] ~doc:"GVN preset: full, balanced, pessimistic, basic, dense, click, sccp, awz.")
  in
  let complete =
    Arg.(value & flag & info [ "complete" ] ~doc:"Use the complete algorithm (incremental reachable dominator tree).")
  in
  let pruning =
    Arg.(value & opt pruning_conv Ssa.Construct.Semi_pruned & info [ "pruning" ] ~doc:"SSA construction: minimal, semi, pruned.")
  in
  let analyze =
    mode_flag [ "analyze"; "a" ] analyze_conv ~bare:Compile.Agvn
      ~doc:
        "Report facts; do not rewrite. $(b,gvn) (the default when the flag \
         is given bare) prints the engine's congruence facts; $(b,const) \
         and $(b,range) print the sparse constant/interval analysis's \
         per-definition facts; $(b,all) prints everything and statically \
         cross-checks the GVN run's claims against the interval facts \
         (a contradiction fails the run)."
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics.") in
  let dump_input = Arg.(value & flag & info [ "dump-input" ] ~doc:"Print the input SSA form.") in
  let check_flag =
    Arg.(value & flag & info [ "check" ] ~doc:"Run the IR verifier on the input SSA and on the optimized routine; report Error-severity diagnostics and exit non-zero if any fire.")
  in
  let lint_flag =
    Arg.(value & flag & info [ "lint" ] ~doc:"Like --check, also reporting the warning/info lint tier (unreachable blocks, dead pure instructions, trivial phis, ...).")
  in
  let werror_flag =
    Arg.(value & flag & info [ "Werror" ] ~doc:"Treat Warning-severity diagnostics as failures (implies --check).")
  in
  let validate_flag =
    mode_flag [ "validate" ] validate_conv ~bare:Validate.All
      ~doc:
        "Translation validation of the optimization: $(b,witness) audits every \
         GVN rewrite against an independent oracle GVN, $(b,diff) compares \
         observable behavior through the interpreter, $(b,all) (the default \
         when the flag is given bare) does both. Rejected rewrites are \
         reported with their location and fail the run."
  in
  let run_args =
    let ints_conv =
      Arg.conv
        ( (fun s ->
            try Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
            with _ -> Error (`Msg "expected comma-separated integers")),
          fun ppf _ -> Fmt.string ppf "<ints>" )
    in
    Arg.(value & opt (some ints_conv) None & info [ "run" ] ~doc:"Interpret with the given arguments (e.g. --run 1,2,3).")
  in
  let disable name =
    Arg.(value & flag & info [ "no-" ^ name ] ~doc:(Printf.sprintf "Disable %s." name))
  in
  let no_reassoc = disable "reassociation" in
  let no_pi = disable "predicate-inference" in
  let no_vi = disable "value-inference" in
  let no_pp = disable "phi-predication" in
  let no_sparse = disable "sparse" in
  let trace_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-trace JSON profile of the run to $(docv) (open in \
             chrome://tracing or Perfetto). Spans cover parsing, SSA \
             construction, each optimization pass, and the GVN engine's \
             internal sweeps.")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the engine metrics snapshot (worklist touches, table \
             probes/hits, arena occupancy, cache hit/miss counters, latency \
             histograms) after processing.")
  in
  let schedule_flag =
    mode_flag [ "schedule" ] schedule_conv ~bare:Compile.Scheck
      ~doc:
        "Code-motion placement analysis of the input SSA; do not rewrite. \
         $(b,check) (the default when the flag is given bare) verifies the \
         identity placement with the independent schedule-legality checker \
         and fails the run on any violation; $(b,dump) prints each value's \
         early/best/late blocks, loop depths and speculation-safety class; \
         $(b,lint) prints the hoist/sink opportunity lints \
         (lint-loop-invariant, lint-sinkable)."
  in
  let gcm_flag =
    mode_flag [ "gcm" ] gcm_conv ~bare:Compile.Gcheck
      ~doc:
        "Global code motion (Click '95) after the GVN rewrite: move every \
         value whose speculation-safety class permits it to its best legal \
         block (hoisting loop-invariant code, sinking values toward their \
         uses). The placement is certified by the independent \
         schedule-legality checker before anything moves; a refuted plan \
         reports its sched-* diagnostics and fails the run (exit 1) \
         without rewriting. $(b,check) (the default when the flag is \
         given bare) additionally diffs observable behavior across the \
         motion through the interpreter; $(b,dump) prints every move. \
         Requires the optimizing mode (conflicts with $(b,--analyze), \
         $(b,--schedule) and $(b,--pred))."
  in
  let pred_flag =
    mode_flag [ "pred" ] pred_conv ~bare:Compile.Pcheck
      ~doc:
        "Run the engine with the multi-fact predicate-implication closure \
         enabled and statically cross-check every closure verdict against \
         the interval analysis and the single-fact dominating-edge walk; \
         a contradiction fails the run (exit 1). $(b,check) (the default \
         when the flag is given bare) reports only the cross-check; \
         $(b,dump) also prints each block's dominating facts; $(b,stats) \
         also prints the closure counters. Nothing is rewritten."
  in
  let rules_flag =
    Arg.(
      value
      & opt (some rules_conv) None
      & info [ "rules" ]
          ~doc:
            "Rewrite-rule catalog control: $(b,dump) prints every rule of the \
             declarative catalog and exits; $(b,verify) runs the static \
             rule-soundness verifier (exhaustive small-width check, full-width \
             fuzzing, catalog lints) and exits non-zero on any refuted rule or \
             fatal lint; $(b,off) optimizes $(i,FILE.mc) with the catalog \
             disabled (trap-refusing constant folding only).")
  in
  let jobs_flag =
    Arg.(
      value
      & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Compile routines on an $(docv)-domain pool (the calling domain \
             plus $(docv)-1 spawned ones). Outputs are emitted in input order \
             and are byte-identical to a sequential run; \
             $(b,--jobs=1) (the default) spawns nothing.")
  in
  let serve_flag =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "serve" ] ~docv:"SOCKET"
          ~doc:
            "Run as a compilation service: read length-prefixed mini-C \
             requests (4-byte big-endian length, then the source) and write \
             framed responses (4-byte big-endian length, then a status byte \
             '0'/'1'/'2', then the batch-mode output). Bare $(b,--serve) \
             speaks the protocol on stdin/stdout; $(b,--serve=)$(docv) binds \
             a Unix-domain socket at $(docv) instead, accepts a single \
             client, and removes the socket file on exit. Takes no \
             $(i,FILE.mc) arguments and conflicts with $(b,--metrics), whose \
             report would corrupt the response stream. Exits with the worst \
             status served.")
  in
  let cache_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Persist the content-addressed result cache: load $(docv) at \
             startup (a missing or corrupted file is a cold cache) and save \
             it back at exit. Within one invocation the in-memory tier always \
             answers repeated routines, with or without this flag.")
  in
  let main preset complete pruning analyze stats dump_input run_args check lint werror validate nr npi nvi npp nsp trace_file metrics rules schedule pred gcm jobs serve_path cache_file paths =
    let toggles =
      { Cli_options.complete; no_reassociation = nr; no_predicate_inference = npi;
        no_value_inference = nvi; no_phi_predication = npp; no_sparse = nsp }
    in
    let config = Cli_options.apply_toggles toggles preset in
    let config = if rules = Some Roff then { config with Pgvn.Config.rules = false } else config in
    let serve_mode = serve_path <> None in
    match rules with
    | Some Rdump -> dump_rules ()
    | Some Rverify -> verify_rules ()
    | _ ->
        let report_only = List.filter Fun.id [ analyze <> None; schedule <> None; pred <> None ] in
        let conflict =
          List.find_opt fst
            [
              (List.length report_only > 1, "--analyze, --schedule and --pred are mutually exclusive");
              ( gcm <> None && report_only <> [],
                "--gcm rewrites and conflicts with the report-only modes (--analyze, --schedule, \
                 --pred)" );
              (serve_mode && paths <> [], "--serve reads routines from stdin and takes no FILE.mc argument");
              ( serve_mode && metrics,
                "--serve and --metrics are mutually exclusive (the metrics report would corrupt \
                 the response stream)" );
              ((not serve_mode) && paths = [], "required argument FILE.mc is missing");
            ]
        in
        match conflict with
        | Some (_, msg) ->
            Fmt.epr "gvnopt: %s@." msg;
            2
        | None ->
          let action =
            match (analyze, schedule, pred) with
            | Some m, _, _ -> Compile.Analyze m
            | _, Some m, _ -> Schedule m
            | _, _, Some m -> Pred m
            | None, None, None -> Optimize
          in
          (* The --pred cross-check replays the closure's verdicts: the
             engine must actually produce them. *)
          let config =
            if pred <> None then { config with Pgvn.Config.pred_closure = true }
            else config
          in
          let opts =
            { Compile.config; pruning; action; stats; dump_input; run_args; check; lint; werror; validate; gcm }
          in
          let obs_opts = { Cli_options.trace_file; metrics } in
          let obs = Cli_options.obs_of obs_opts in
          let cache = match cache_file with Some p -> Par.Ccache.load p | None -> Par.Ccache.create () in
          let code =
            Par.Pool.with_pool ~domains:jobs (fun pool ->
                match serve_path with
                | Some "" -> serve ~opts ~pool ~cache ~obs stdin stdout
                | Some path -> serve_socket ~opts ~pool ~cache ~obs path
                | None -> run_batch ~opts ~pool ~cache ~obs paths)
          in
          (match cache_file with Some p -> Par.Ccache.save cache p | None -> ());
          Cli_options.finish obs_opts obs;
          code
  in
  let term =
    Term.(
      const main $ preset $ complete $ pruning $ analyze $ stats $ dump_input $ run_args
      $ check_flag $ lint_flag $ werror_flag $ validate_flag
      $ no_reassoc $ no_pi $ no_vi $ no_pp $ no_sparse $ trace_flag $ metrics_flag
      $ rules_flag $ schedule_flag $ pred_flag $ gcm_flag $ jobs_flag $ serve_flag $ cache_flag $ paths)
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success (no diagnostics at the failure threshold).";
      Cmd.Exit.info 1
        ~doc:
          "on diagnostics at or above the failure threshold: verifier errors, \
           warnings under $(b,--Werror), rewrites rejected under $(b,--validate), \
           schedule-legality violations under $(b,--schedule=check), a refuted \
           GCM placement or behavior diff under $(b,--gcm), \
           or a $(b,--run) disagreement.";
      Cmd.Exit.info 2 ~doc:"on usage or parse errors.";
    ]
  in
  Cmd.v
    (Cmd.info "gvnopt" ~doc:"Predicated global value numbering for mini-C routines" ~exits)
    term

(* Pin the documented contract: cmdliner's own split of CLI errors (124) vs
   term errors would leak through [eval']; collapse every usage-level
   failure — unknown flag, bad option value, missing or nonexistent file —
   to exit 2. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term | `Exn) -> 2)
