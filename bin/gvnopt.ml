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

   Every mode answers repeated routines from a content-addressed result
   cache keyed by the parsed routine plus a fingerprint of every flag the
   output depends on, so a hit skips lowering and SSA; misses run the full
   check/validate/crosscheck machinery and populate the cache. Routine
   outputs are rendered into per-routine buffers and concatenated in input
   order, so sequential and parallel runs are byte-identical.

   Exit codes: 0 clean; 1 diagnostics at or above the failure threshold
   (verifier errors, --Werror'd warnings, rejected rewrites, --run
   disagreement, a refuted rule under --rules=verify, a schedule-legality
   violation under --schedule=check, a refuted GCM placement or behavior
   diff under --gcm); 2 usage or parse error. In batch
   mode over several files the exit code is the worst per-file code; in
   --serve mode it is the worst per-request status. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --analyze sub-modes: which analysis's per-def facts to dump. [Aall]
   additionally runs the static cross-checker over the GVN run. *)
type analyze_mode = Agvn | Aconst | Arange | Aall

(* --schedule sub-modes: all three run the placement analysis on the input
   SSA and rewrite nothing. [Scheck] (the bare-flag default) verifies the
   identity placement with the independent legality checker. *)
type schedule_mode = Sdump | Scheck | Slint

(* --pred sub-modes: all three enable the multi-fact implication closure
   in the engine and statically cross-check every closure verdict against
   the interval analysis and the single-fact walk; a contradiction fails
   the run. [Pcheck] (the bare-flag default) reports only the cross-check;
   dump adds the per-block dominating facts, stats the closure counters. *)
type pred_mode = Pcheck | Pdump | Pstats

(* --gcm sub-modes: [Gcheck] (the bare-flag default) additionally diffs
   observable behavior across the motion through the interpreter; [Gdump]
   prints every move. Both certify the placement with Check.Schedule
   before rewriting. *)
type gcm_mode = Gcheck | Gdump

type action = Optimize | Analyze of analyze_mode | Schedule of schedule_mode | Pred of pred_mode

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

let analyze_conv =
  mode_conv "analysis" [ ("gvn", Agvn); ("const", Aconst); ("range", Arange); ("all", Aall) ]

let schedule_conv = mode_conv "schedule mode" [ ("dump", Sdump); ("check", Scheck); ("lint", Slint) ]
let pred_conv = mode_conv "pred mode" [ ("check", Pcheck); ("dump", Pdump); ("stats", Pstats) ]
let gcm_conv = mode_conv "gcm mode" [ ("check", Gcheck); ("dump", Gdump) ]
let rules_conv = mode_conv "rules mode" [ ("dump", Rdump); ("verify", Rverify); ("off", Roff) ]

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
let preset_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Cli.Cli_options.preset_of_string s) in
  Arg.conv (parse, fun ppf _ -> Fmt.string ppf "<preset>")

let validate_conv =
  let parse s =
    match Validate.mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown validation mode %S (witness, diff, all)" s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Validate.mode_to_string m))

let pruning_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Cli.Cli_options.pruning_of_string s) in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Ssa.Construct.pruning_to_string p))

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

(* Everything a routine's compilation depends on, bundled so the batch and
   serve paths thread one value. *)
type opts = {
  config : Pgvn.Config.t;
  pruning : Ssa.Construct.pruning;
  action : action;
  stats : bool;
  dump_input : bool;
  run_args : int array option;
  check : bool;
  lint : bool;
  werror : bool;
  validate : Validate.mode option;
  gcm : gcm_mode option;
}

(* Render a diagnostic list under the --check/--lint flags; returns true
   when the run should be considered failed. *)
let report_diag_list ppf ~lint ~werror ~stage name ds =
  let ds = Check.sort ds in
  let shown =
    if lint then ds
    else List.filter (fun d -> d.Check.Diagnostic.severity = Check.Diagnostic.Error) ds
  in
  List.iter (fun d -> Fmt.pf ppf "%s (%s): %a@." name stage Check.Diagnostic.pp d) shown;
  Check.has_errors ds
  || (werror
     && List.exists (fun d -> d.Check.Diagnostic.severity = Check.Diagnostic.Warning) ds)

(* Dump one sparse analysis's per-definition facts through the printer,
   prefixed by the blocks it proves unexecutable. *)
let dump_facts ppf f ~header ~(pp_fact : 'f Fmt.t) ~(fact : int -> 'f) ~block_exec =
  Fmt.pf ppf "--- %s facts ---@." header;
  for b = 0 to Ir.Func.num_blocks f - 1 do
    if not block_exec.(b) then Fmt.pf ppf "  block %d: unreachable@." b
  done;
  for v = 0 to Ir.Func.num_instrs f - 1 do
    if Ir.Func.defines_value (Ir.Func.instr f v) then
      Fmt.pf ppf "  @[<h>%a  ;; %a@]@." (Ir.Printer.pp_instr f) v pp_fact (fact v)
  done

(* The --schedule modes: run the placement analysis (dump, lint) and the
   independent legality checker (check) on the input SSA; nothing is
   rewritten. Returns true when the run should be considered failed. *)
let run_schedule ppf ~obs mode name f =
  let pl = Schedule.Placement.compute ?obs f in
  let s = Schedule.Placement.stats pl in
  Fmt.pf ppf
    "schedule: %d values | %d pinned (%d speculation-blocked) | %d hoistable | %d sinkable@."
    s.Schedule.Placement.values s.Schedule.Placement.pinned
    s.Schedule.Placement.speculation_blocked s.Schedule.Placement.hoistable
    s.Schedule.Placement.sinkable;
  match mode with
  | Sdump ->
      dump_facts ppf f ~header:"schedule" ~pp_fact:(Schedule.Placement.pp_fact pl)
        ~fact:(fun v -> v)
        ~block_exec:pl.Schedule.Placement.ranges.Absint.Ranges.block_exec;
      false
  | Scheck ->
      let ds =
        Obs.span_o obs ~cat:"schedule" "schedule.check" @@ fun () ->
        Check.Schedule.run f
      in
      Obs.add_o obs "schedule.violations" (List.length (Check.errors ds));
      List.iter
        (fun d -> Fmt.pf ppf "%s (schedule): %a@." name Check.Diagnostic.pp d)
        (Check.sort ds);
      Fmt.pf ppf "schedule check: %d violation(s)@." (List.length (Check.errors ds));
      Check.has_errors ds
  | Slint ->
      let ls = Schedule.Placement.lints pl in
      List.iter
        (fun d -> Fmt.pf ppf "%s (schedule): %a@." name Check.Diagnostic.pp d)
        ls;
      Fmt.pf ppf "schedule lint: %d opportunity(ies)@." (List.length ls);
      false

(* The optimizing mode: GVN + rewrite, DCE and CFG cleanup, plus GCM under
   --gcm, as one Transform.Pipeline pass list, which also certifies the
   compile: under --validate the whole list as one step, "gvn+cleanup";
   under --gcm=check the motion's behaviour diff. A refused GCM pass is
   undone, so the function is rendered as GVN and cleanup left it. *)
let optimize ~opts ~obs f =
  let module P = Transform.Pipeline in
  P.run_list
    {
      P.Options.default with
      config = opts.config;
      validate = Option.map (fun mode -> (mode, P.Options.Whole "gvn+cleanup")) opts.validate;
      obs;
    }
    ([ P.Pass.gvn ~name:"gvn"; P.Pass.dce ~name:"dce"; P.Pass.simplify_cfg ~name:"simplify-cfg" ]
    @
    match opts.gcm with
    | Some mode -> [ P.Pass.gcm ~diff:(mode = Gcheck) ~name:"gcm" ]
    | None -> [])
    f

(* --gcm's report over the certified plan: the moves under --gcm=dump, the
   motion counts, and under --gcm=check the pass's behaviour diff across
   the motion alone (moved code must be observably invisible). *)
let report_gcm ppf ~failed name mode { Transform.Pipeline.plan = p; diff } =
  let pl = p.Transform.Gcm.placement in
  if mode = Gdump then
    List.iter
      (fun (v, from_b, to_b) ->
        Fmt.pf ppf "gcm: v%d b%d -> b%d%s@." v from_b to_b
          (if Schedule.Placement.hoistable pl v then " [hoist]"
           else if Schedule.Placement.sinkable pl v then " [sink]"
           else ""))
      (Transform.Gcm.moves p);
  let s = Transform.Gcm.stats p in
  Fmt.pf ppf "gcm: %d value(s) moved (%d hoisted, %d sunk) | %d speculation-blocked@."
    s.Transform.Gcm.moved s.Transform.Gcm.hoisted s.Transform.Gcm.sunk
    s.Transform.Gcm.speculation_blocked;
  Option.iter
    (fun r ->
      if Validate.Equiv.ok r then
        Fmt.pf ppf "gcm diff: observably equivalent (%d runs)@." r.Validate.Equiv.runs
      else begin
        List.iter
          (fun d -> Fmt.pf ppf "%s (gcm): %a@." name Check.Diagnostic.pp d)
          (Validate.Equiv.diagnostics r);
        Fmt.pf ppf "gcm diff: DISAGREE@.";
        failed := true
      end)
    diff

(* The static cross-check of a GVN run's claims against interval facts; a
   contradiction fails the run. *)
let crosscheck ppf ~failed ~ranges st =
  let report = Absint.Crosscheck.run ~ranges st in
  Fmt.pf ppf "%a@." Absint.Crosscheck.pp_report report;
  if not (Absint.Crosscheck.ok report) then failed := true

(* One routine, end to end, rendered into [ppf] from its lowered form
   [cir] and SSA form [f]. Returns true when the routine failed. *)
let process_routine ppf ~opts ~obs ~cir ~f name =
  let failed = ref false in
  let checking = opts.check || opts.lint || opts.werror in
  let diagnose ~stage name g =
    if checking then
      Obs.span_o obs ~cat:"verify" "check" @@ fun () ->
      if report_diag_list ppf ~lint:opts.lint ~werror:opts.werror ~stage name
           (Check.run_all ~lint:opts.lint g)
      then failed := true
  in
  Fmt.pf ppf "=== %s ===@." name;
  if opts.dump_input then Fmt.pf ppf "--- input SSA ---@.%a@." Ir.Printer.pp f;
  (* Pre-SSA lints must run on the Cir: SSA construction seeds unassigned
     registers with a shared constant 0, hiding the read. *)
  if
    opts.lint
    && report_diag_list ppf ~lint:opts.lint ~werror:opts.werror ~stage:"cir" name
         (Check.Lint.run_cir cir)
  then failed := true;
  diagnose ~stage:"input" name f;
  let summarize st =
    let s = Pgvn.Driver.summarize st in
    Fmt.pf ppf
      "values: %d | unreachable: %d | constant: %d | classes: %d | reachable blocks: %d/%d | passes: %d@."
      s.Pgvn.Driver.values s.Pgvn.Driver.unreachable_values s.Pgvn.Driver.constant_values
      s.Pgvn.Driver.congruence_classes s.Pgvn.Driver.reachable_blocks (Ir.Func.num_blocks f)
      s.Pgvn.Driver.passes;
    if opts.stats then Fmt.pf ppf "stats: %a@." Pgvn.Run_stats.pp st.Pgvn.State.stats
  in
  (* The report-only modes rewrite nothing: one engine run on the input. *)
  let gvn () =
    let st = Obs.span_o obs ~cat:"pass" "gvn" @@ fun () -> Pgvn.Driver.run ?obs opts.config f in
    summarize st;
    st
  in
  (match opts.action with
  | Schedule mode ->
      ignore (gvn ());
      if run_schedule ppf ~obs mode name f then failed := true
  | Pred mode ->
      (* The engine ran with the implication closure enabled (main forces
         [pred_closure] on for this action); every mode replays its
         verdicts against the interval analysis and the single-fact walk. *)
      let st = gvn () in
      let ranges = Obs.span_o obs ~cat:"verify" "pred.crosscheck" @@ fun () ->
        Absint.Ranges.run ?obs f
      in
      (match mode with
      | Pcheck -> ()
      | Pdump ->
          let pf = Absint.Ranges.branch_facts ranges in
          Fmt.pf ppf "--- dominating facts ---@.";
          for b = 0 to Ir.Func.num_blocks f - 1 do
            match Pred.Facts.at_block pf b with
            | [] -> ()
            | fs -> Fmt.pf ppf "  block %d: %a@." b Pred.Facts.pp_facts fs
          done
      | Pstats ->
          let s = st.Pgvn.State.stats in
          Fmt.pf ppf
            "pred: %d queries | %d decided true | %d decided false | %d contradictions@."
            s.Pgvn.Run_stats.pred_closure_queries s.Pgvn.Run_stats.pred_decided_true
            s.Pgvn.Run_stats.pred_decided_false s.Pgvn.Run_stats.pred_contradictions);
      crosscheck ppf ~failed ~ranges st
  | Analyze mode ->
      let st = gvn () in
      (* Print the non-trivial congruence facts. *)
      let dump_gvn () =
        for v = 0 to Ir.Func.num_instrs f - 1 do
          if Ir.Func.defines_value (Ir.Func.instr f v) then
            if Pgvn.Driver.value_unreachable st v then Fmt.pf ppf "  v%d: unreachable@." v
            else
              match Pgvn.Driver.value_constant st v with
              | Some c -> Fmt.pf ppf "  v%d = %d@." v c
              | None -> (
                  match (Pgvn.State.cls st st.Pgvn.State.class_of.(v)).Pgvn.State.leader with
                  | Pgvn.State.Lvalue l when l <> v -> Fmt.pf ppf "  v%d == v%d@." v l
                  | _ -> ())
        done
      in
      let dump_const () =
        let res = Absint.Consts.run ?obs f in
        dump_facts ppf f ~header:"const" ~pp_fact:Absint.Konst.pp
          ~fact:(fun v -> res.Absint.Consts.facts.(v))
          ~block_exec:res.Absint.Consts.block_exec
      in
      let dump_range () =
        let res = Absint.Ranges.run ?obs f in
        dump_facts ppf f ~header:"range" ~pp_fact:Absint.Itv.pp
          ~fact:(fun v -> res.Absint.Ranges.facts.(v))
          ~block_exec:res.Absint.Ranges.block_exec;
        res
      in
      (match mode with
      | Agvn -> dump_gvn ()
      | Aconst -> dump_const ()
      | Arange -> ignore (dump_range ())
      | Aall ->
          dump_gvn ();
          dump_const ();
          let ranges = dump_range () in
          crosscheck ppf ~failed ~ranges st)
  | Optimize ->
      let r = optimize ~opts ~obs f in
      Option.iter summarize r.Transform.Pipeline.gvn_state;
      let g = r.Transform.Pipeline.func in
      (match (opts.gcm, r.Transform.Pipeline.gcm) with
      | Some _, None ->
          let refused =
            Option.value ~default:[] (List.assoc_opt "gcm" r.Transform.Pipeline.refused)
          in
          List.iter
            (fun d -> Fmt.pf ppf "%s (gcm): %a@." name Check.Diagnostic.pp d)
            (Check.sort refused);
          Fmt.pf ppf "gcm: REFUSED (%d violation(s)); not rewritten@." (List.length refused);
          failed := true
      | Some mode, Some report -> report_gcm ppf ~failed name mode report
      | None, _ -> ());
      Fmt.pf ppf "--- optimized (%d -> %d instrs, %d -> %d blocks) ---@.%a@."
        (Ir.Func.num_instrs f) (Ir.Func.num_instrs g) (Ir.Func.num_blocks f)
        (Ir.Func.num_blocks g) Ir.Printer.pp g;
      diagnose ~stage:"optimized" name g;
      Option.iter
        (fun report ->
          Fmt.pf ppf "validate: %a@." Validate.Report.pp_summary report;
          let errors = Validate.Report.errors report in
          List.iter
            (fun d -> Fmt.pf ppf "%s (validate): %a@." name Check.Diagnostic.pp d)
            errors;
          if errors <> [] then failed := true)
        r.Transform.Pipeline.validation;
      (match opts.run_args with
      | None -> ()
      | Some args ->
          let a = Ir.Interp.run f args and b = Ir.Interp.run g args in
          let agree = Ir.Interp.equal_result a b in
          Fmt.pf ppf "run(%a): input %a | optimized %a | %s@."
            Fmt.(array ~sep:(any ",") int)
            args Ir.Interp.pp_result a Ir.Interp.pp_result b
            (if agree then "agree" else "DISAGREE");
          if not agree then failed := true));
  !failed

(* The cache key's fingerprint: every flag the rendered output depends on,
   which is all of [opts], so a field added there separates keys too. The
   key itself is the parsed routine, and lowering, SSA construction and
   everything after them are functions of the routine and these options.
   Marshal is fine here: plain data, and the persisted tier's key version
   covers the format. *)
let fingerprint ~opts = Marshal.to_string opts []

(* Compile one routine, answering from the cache when its key is known:
   returns its rendered output, whether it failed, and the routine-private
   Obs context (merged into the main one, in input order, by the caller —
   that ordering is what makes parallel reports deterministic). The key is
   the parsed routine, so a hit skips lowering and SSA construction. Cached
   values store the failure bit in their first byte, then the exact output
   text, so a hit is byte-identical to a fresh run. Runs on pool workers:
   everything here must be domain-safe. *)
let compile_one ~opts ~cache ~obs (r : Ir.Ast.routine) =
  let robs = match obs with None -> None | Some _ -> Some (Obs.create ()) in
  let key = Par.Ccache.key_of ~fingerprint:(fingerprint ~opts) r in
  match Par.Ccache.find ?obs:robs cache key with
  | Some v ->
      let failed = String.length v > 0 && v.[0] = '1' in
      (String.sub v 1 (String.length v - 1), failed, robs)
  | None ->
      let cir = Ir.Lower.lower_routine r in
      let f =
        Obs.span_o robs ~cat:"pass" "ssa" @@ fun () ->
        Ssa.Construct.of_cir ~pruning:opts.pruning cir
      in
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      let failed = process_routine ppf ~opts ~obs:robs ~cir ~f r.Ir.Ast.name in
      Format.pp_print_flush ppf ();
      let out = Buffer.contents buf in
      Par.Ccache.add ?obs:robs cache key ((if failed then "1" else "0") ^ out);
      (out, failed, robs)

let merge_robs ~obs results =
  Array.iter
    (fun (_, _, robs) ->
      match (obs, robs) with
      | Some dst, Some src -> Obs.merge_into ~dst src
      | _ -> ())
    results

(* Parses [src], read from [path]. A lex or parse error becomes its
   diagnostic, [path:LINE:COL: lex error: msg] (or [parse error]). *)
let parse_source ~path src =
  let diag kind msg off =
    let line, col = Ir.Lexer.line_col src off in
    Error (Printf.sprintf "%s:%d:%d: %s error: %s" path line col kind msg)
  in
  match Ir.Parser.parse_program src with
  | routines -> Ok routines
  | exception Ir.Parser.Error (msg, off) -> diag "parse" msg off
  | exception Ir.Lexer.Error (msg, off) -> diag "lex" msg off

(* Batch mode: parse every file up front (sequential — the parser is the
   cheap part), fan the routines out across the pool, then print outputs in
   input order. A file that fails to parse reports on stderr and contributes
   exit 2; the rest of the batch still runs. *)
let run_batch ~opts ~pool ~cache ~obs paths =
  let worst = ref 0 in
  let parsed =
    List.map
      (fun path ->
        Obs.span_o obs ~cat:"pipeline" "parse" @@ fun () ->
        match parse_source ~path (read_file path) with
        | Ok routines -> routines
        | Error diag ->
            Fmt.epr "%s@." diag;
            worst := max !worst 2;
            [])
      paths
  in
  let work = Array.of_list (List.concat parsed) in
  let results = Par.Pool.map pool (fun r -> compile_one ~opts ~cache ~obs r) work in
  merge_robs ~obs results;
  Array.iter
    (fun (out, failed, _) ->
      print_string out;
      if failed then worst := max !worst 1)
    results;
  flush stdout;
  !worst

(* ------------------------------------------------------------------ *)
(* --serve: the streaming compilation service. Framing (both directions):
   a 4-byte big-endian byte count, then that many bytes. A request payload
   is mini-C source (any number of routines); a response payload is one
   status byte — '0' clean, '1' diagnostics failed the request, '2' parse
   error — followed by exactly the text batch mode would print for those
   routines (or the parse error message after status '2'). The server
   answers requests in order and keeps serving after failed requests; the
   process exits with the worst status served (EOF on a frame boundary is
   a clean shutdown, a truncated frame is a protocol error, exit 2). *)

let max_frame = 1 lsl 26 (* 64 MiB: refuse absurd lengths rather than allocate *)

let read_frame ic =
  match input_byte ic with
  | exception End_of_file -> None (* clean EOF: no header byte arrived *)
  | b0 ->
      (* past the first byte, EOF in the header is a truncated frame *)
      let rest = really_input_string ic 3 in
      let b i = Char.code rest.[i] in
      let len = (b0 lsl 24) lor (b 0 lsl 16) lor (b 1 lsl 8) lor b 2 in
      if len > max_frame then failwith (Printf.sprintf "frame of %d bytes exceeds the limit" len)
      else Some (really_input_string ic len)

let write_frame oc payload =
  let len = String.length payload in
  output_byte oc ((len lsr 24) land 0xff);
  output_byte oc ((len lsr 16) land 0xff);
  output_byte oc ((len lsr 8) land 0xff);
  output_byte oc (len land 0xff);
  output_string oc payload;
  flush oc

let serve_frames ~opts ~pool ~cache ~obs ic oc =
  let worst = ref 0 in
  let respond src =
    match parse_source ~path:"<stdin>" src with
    | Error diag -> (2, diag ^ "\n")
    | Ok routines ->
        let results =
          Par.Pool.map pool (fun r -> compile_one ~opts ~cache ~obs r) (Array.of_list routines)
        in
        merge_robs ~obs results;
        let buf = Buffer.create 512 in
        let failed = ref false in
        Array.iter
          (fun (out, f, _) ->
            Buffer.add_string buf out;
            if f then failed := true)
          results;
        ((if !failed then 1 else 0), Buffer.contents buf)
  in
  let rec loop () =
    match read_frame ic with
    | None -> !worst
    | Some src ->
        let status, body = respond src in
        worst := max !worst status;
        write_frame oc (string_of_int status ^ body);
        loop ()
  in
  match loop () with
  | code -> code
  | exception End_of_file ->
      Fmt.epr "gvnopt: --serve: truncated frame@.";
      2
  | exception Failure msg ->
      Fmt.epr "gvnopt: --serve: %s@." msg;
      2

let serve ~opts ~pool ~cache ~obs () =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  serve_frames ~opts ~pool ~cache ~obs stdin stdout

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
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      set_binary_mode_in ic true;
      set_binary_mode_out oc true;
      let code = serve_frames ~opts ~pool ~cache ~obs ic oc in
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      code

(* ------------------------------------------------------------------ *)

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
    Arg.(
      value
      & opt ~vopt:(Some Agvn) (some analyze_conv) None
      & info [ "analyze"; "a" ]
          ~doc:
            "Report facts; do not rewrite. $(b,gvn) (the default when the flag \
             is given bare) prints the engine's congruence facts; $(b,const) \
             and $(b,range) print the sparse constant/interval analysis's \
             per-definition facts; $(b,all) prints everything and statically \
             cross-checks the GVN run's claims against the interval facts \
             (a contradiction fails the run).")
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
    Arg.(
      value
      & opt ~vopt:(Some Validate.All) (some validate_conv) None
      & info [ "validate" ]
          ~doc:
            "Translation validation of the optimization: $(b,witness) audits every \
             GVN rewrite against an independent oracle GVN, $(b,diff) compares \
             observable behavior through the interpreter, $(b,all) (the default \
             when the flag is given bare) does both. Rejected rewrites are \
             reported with their location and fail the run.")
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
    Arg.(
      value
      & opt ~vopt:(Some Scheck) (some schedule_conv) None
      & info [ "schedule" ]
          ~doc:
            "Code-motion placement analysis of the input SSA; do not rewrite. \
             $(b,check) (the default when the flag is given bare) verifies the \
             identity placement with the independent schedule-legality checker \
             and fails the run on any violation; $(b,dump) prints each value's \
             early/best/late blocks, loop depths and speculation-safety class; \
             $(b,lint) prints the hoist/sink opportunity lints \
             (lint-loop-invariant, lint-sinkable).")
  in
  let gcm_flag =
    Arg.(
      value
      & opt ~vopt:(Some Gcheck) (some gcm_conv) None
      & info [ "gcm" ]
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
             $(b,--schedule) and $(b,--pred)).")
  in
  let pred_flag =
    Arg.(
      value
      & opt ~vopt:(Some Pcheck) (some pred_conv) None
      & info [ "pred" ]
          ~doc:
            "Run the engine with the multi-fact predicate-implication closure \
             enabled and statically cross-check every closure verdict against \
             the interval analysis and the single-fact dominating-edge walk; \
             a contradiction fails the run (exit 1). $(b,check) (the default \
             when the flag is given bare) reports only the cross-check; \
             $(b,dump) also prints each block's dominating facts; $(b,stats) \
             also prints the closure counters. Nothing is rewritten.")
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
      {
        Cli.Cli_options.complete;
        no_reassociation = nr;
        no_predicate_inference = npi;
        no_value_inference = nvi;
        no_phi_predication = npp;
        no_sparse = nsp;
      }
    in
    let config = Cli.Cli_options.apply_toggles toggles preset in
    let config =
      match rules with
      | Some Roff -> { config with Pgvn.Config.rules = false }
      | _ -> config
    in
    let serve_mode = serve_path <> None in
    match rules with
    | Some Rdump -> dump_rules ()
    | Some Rverify -> verify_rules ()
    | _ ->
        if
          List.length
            (List.filter Fun.id [ analyze <> None; schedule <> None; pred <> None ])
          > 1
        then begin
          Fmt.epr "gvnopt: --analyze, --schedule and --pred are mutually exclusive@.";
          2
        end
        else if
          gcm <> None && (analyze <> None || schedule <> None || pred <> None)
        then begin
          Fmt.epr
            "gvnopt: --gcm rewrites and conflicts with the report-only modes \
             (--analyze, --schedule, --pred)@.";
          2
        end
        else if serve_mode && paths <> [] then begin
          Fmt.epr "gvnopt: --serve reads routines from stdin and takes no FILE.mc argument@.";
          2
        end
        else if serve_mode && metrics then begin
          Fmt.epr "gvnopt: --serve and --metrics are mutually exclusive (the metrics report would corrupt the response stream)@.";
          2
        end
        else if (not serve_mode) && paths = [] then begin
          Fmt.epr "gvnopt: required argument FILE.mc is missing@.";
          2
        end
        else begin
          let action =
            match (analyze, schedule, pred) with
            | Some m, _, _ -> Analyze m
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
            { config; pruning; action; stats; dump_input; run_args; check; lint; werror; validate; gcm }
          in
          let obs_opts = { Cli.Cli_options.trace_file; metrics } in
          let obs = Cli.Cli_options.obs_of obs_opts in
          let cache =
            match cache_file with
            | Some p -> Par.Ccache.load p
            | None -> Par.Ccache.create ()
          in
          let code =
            Par.Pool.with_pool ~domains:jobs (fun pool ->
                match serve_path with
                | Some "" -> serve ~opts ~pool ~cache ~obs ()
                | Some path -> serve_socket ~opts ~pool ~cache ~obs path
                | None -> run_batch ~opts ~pool ~cache ~obs paths)
          in
          (match cache_file with Some p -> Par.Ccache.save cache p | None -> ());
          Cli.Cli_options.finish obs_opts obs;
          code
        end
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
