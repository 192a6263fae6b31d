(* gvnopt's compile path, from source text to rendered text plus a status:
   one routine through the cache (compile_one), one request through the
   pool (request), and the --serve framing around requests. *)

type analyze_mode = Agvn | Aconst | Arange | Aall
type schedule_mode = Sdump | Scheck | Slint
type pred_mode = Pcheck | Pdump | Pstats
type gcm_mode = Gcheck | Gdump
type action = Optimize | Analyze of analyze_mode | Schedule of schedule_mode | Pred of pred_mode

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

(* Every diagnostic line of a routine's text: [name (stage): diagnostic]. *)
let pp_diags ppf name stage ds =
  List.iter (fun d -> Fmt.pf ppf "%s (%s): %a@." name stage Check.Diagnostic.pp d) ds

(* Render a diagnostic list under the --check/--lint flags; returns true
   when the run should be considered failed. *)
let report_diag_list ppf ~lint ~werror ~stage name ds =
  let ds = Check.sort ds in
  pp_diags ppf name stage
    (if lint then ds
     else List.filter (fun d -> d.Check.Diagnostic.severity = Check.Diagnostic.Error) ds);
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
      pp_diags ppf name "schedule" (Check.sort ds);
      Fmt.pf ppf "schedule check: %d violation(s)@." (List.length (Check.errors ds));
      Check.has_errors ds
  | Slint ->
      let ls = Schedule.Placement.lints pl in
      pp_diags ppf name "schedule" ls;
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
        pp_diags ppf name "gcm" (Validate.Equiv.diagnostics r);
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
      (* The engine ran with the implication closure enabled (gvnopt forces
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
          pp_diags ppf name "gcm" (Check.sort refused);
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
          pp_diags ppf name "validate" errors;
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

(* The cache key's fingerprint. Marshal is fine here: plain data, and the
   persisted tier's key version covers the format. A record marshals as
   the tuple of its fields. *)
let fingerprint ~opts = Marshal.to_string opts []

type compiled = { text : string; status : int; obs : Obs.t option }

(* One routine; its status is 0, 1 or 2 (an internal error). Runs on pool
   workers: everything here must be domain-safe. *)
let compile_one ~opts ~cache ~obs (r : Ir.Ast.routine) =
  let obs = Option.map (fun _ -> Obs.create ()) obs in
  let key = Par.Ccache.key_of ~fingerprint:(fingerprint ~opts) r in
  let text, status =
    match Par.Ccache.find ?obs cache key with
    | Some v -> (String.sub v 1 (String.length v - 1), if v.[0] = '1' then 1 else 0)
    | None -> (
        let buf = Buffer.create 512 in
        let ppf = Format.formatter_of_buffer buf in
        match
          let cir = Ir.Lower.lower_routine r in
          let f =
            Obs.span_o obs ~cat:"pass" "ssa" @@ fun () ->
            Ssa.Construct.of_cir ~pruning:opts.pruning cir
          in
          let failed = process_routine ppf ~opts ~obs ~cir ~f r.name in
          Format.pp_print_flush ppf ();
          failed
        with
        | failed ->
            let text = Buffer.contents buf in
            Par.Ccache.add ?obs cache key ((if failed then "1" else "0") ^ text);
            (text, Bool.to_int failed)
        | exception Out_of_memory -> raise Out_of_memory
        | exception e ->
            (Fmt.str "=== %s ===@.%s (internal): %s@." r.name r.name (Printexc.to_string e), 2))
  in
  { text; status; obs }

let compile_routines ~opts ~pool ~cache ~obs routines =
  let results = Par.Pool.map pool (compile_one ~opts ~cache ~obs) (Array.of_list routines) in
  let buf = Buffer.create 4096 in
  let status =
    Array.fold_left
      (fun worst c ->
        (match (obs, c.obs) with Some dst, Some src -> Obs.merge_into ~dst src | _ -> ());
        Buffer.add_string buf c.text;
        max worst c.status)
      0 results
  in
  (status, Buffer.contents buf)

(* A lex or parse error becomes its diagnostic. *)
let parse_source ~path src =
  let diag kind msg off =
    let line, col = Ir.Lexer.line_col src off in
    Error (Printf.sprintf "%s:%d:%d: %s error: %s" path line col kind msg)
  in
  match Ir.Parser.parse_program src with
  | routines -> Ok routines
  | exception Ir.Parser.Error (msg, off) -> diag "parse" msg off
  | exception Ir.Lexer.Error (msg, off) -> diag "lex" msg off

let request ~opts ~pool ~cache ~obs ~path src =
  Obs.span_o obs ~cat:"pipeline" "parse" (fun () -> parse_source ~path src)
  |> Result.map (compile_routines ~opts ~pool ~cache ~obs)

(* ------------------------------------------------------------------ *)
(* --serve framing, both directions: a 4-byte big-endian byte count, then
   that many bytes. *)

exception Frame_too_large of int

let max_frame = 1 lsl 26 (* 64 MiB: refuse absurd lengths rather than allocate *)

let read_frame ic =
  match input_byte ic with
  | exception End_of_file -> None (* clean EOF: no header byte arrived *)
  | b0 ->
      (* past the first byte, EOF in the header is a truncated frame *)
      let rest = really_input_string ic 3 in
      let b i = Char.code rest.[i] in
      let len = (b0 lsl 24) lor (b 0 lsl 16) lor (b 1 lsl 8) lor b 2 in
      if len > max_frame then raise (Frame_too_large len)
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
  let rec loop worst =
    match read_frame ic with
    | None -> worst
    | Some src ->
        let status, body =
          match request ~opts ~pool ~cache ~obs ~path:"<stdin>" src with
          | Ok response -> response
          | Error diag -> (2, diag ^ "\n")
        in
        write_frame oc (string_of_int status ^ body);
        loop (max worst status)
  in
  match loop 0 with
  | code -> code
  | exception End_of_file ->
      Fmt.epr "gvnopt: --serve: truncated frame@.";
      2
  | exception Frame_too_large len ->
      Fmt.epr "gvnopt: --serve: frame of %d bytes exceeds the limit@." len;
      2
