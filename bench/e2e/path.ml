(* gvnopt's compile path (bin/gvnopt.ml: compile_one, process_routine,
   run_batch, serve_frames), replayed through the same public library
   calls in the same order, for the flags the workloads use: the default
   preset and semi-pruned SSA, plus --check, --validate=all and
   --gcm=check where the workload sets them.

   Given a ledger, every call is wrapped in a span named after its layer,
   each pool task gets a private Obs context (as gvnopt gives each routine
   one) and the layer's work is counted; without one the path runs bare.
   The library calls themselves never see an Obs context, exactly as in an
   untraced gvnopt run. The correctness gate compares the text rendered
   here with gvnopt's, so drift from the CLI path fails the benchmark. *)

let span obs name f = Obs.span_o obs ~cat:"e2e" name f
let config = Cli.Cli_options.apply_toggles Cli.Cli_options.no_toggles Pgvn.Config.full
let pruning = Ssa.Construct.Semi_pruned

(* gvnopt's cache fingerprint: the tuple of its opts record, with the
   flags these workloads never set at their defaults. Constant
   constructors marshal as their index, so () stands in for gvnopt's
   Optimize action and Gcheck mode. *)
let fingerprint (o : Workloads.opts) =
  Marshal.to_string
    ( config,
      pruning,
      (),
      false,
      false,
      (None : int array option),
      o.check,
      false,
      false,
      (if o.validate then Some Validate.All else None),
      if o.gcm then Some () else None )
    []

type compiled = {
  name : string;
  out : string;  (** the routine's text, as gvnopt prints it *)
  failed : bool;
  fresh : (Ir.Cir.t * Ir.Func.t * Ir.Func.t) option;
      (** lowered source, input SSA and final function, on a cache miss *)
}

(* Per-run observation state; [None] runs the path untraced. *)
type ledger = {
  obs : Obs.t;  (** main-domain spans; worker contexts join it in [close] *)
  mutable workers : Obs.t list;  (** per-task contexts, newest first *)
  mutable map_wall : float;  (** summed Pool.map wall time *)
  mutable busy : float;  (** summed task run time *)
  mutable wait : float;  (** summed task start minus batch start *)
  mutable tasks : int;
}

let ledger () =
  {
    obs = Obs.create ~capacity:(1 lsl 22) ();
    workers = [];
    map_wall = 0.;
    busy = 0.;
    wait = 0.;
    tasks = 0;
  }

(* Merge the worker contexts in input order, after the timed pass. *)
let close l =
  List.iter (fun w -> Obs.merge_into ~dst:l.obs w) (List.rev l.workers);
  l.workers <- []

(* gvnopt's report_diag_list without --lint/--Werror: Error-severity
   diagnostics only. *)
let report_errors ppf ~stage name ds =
  List.iter
    (fun d ->
      if d.Check.Diagnostic.severity = Check.Diagnostic.Error then
        Fmt.pf ppf "%s (%s): %a@." name stage Check.Diagnostic.pp d)
    (Check.sort ds);
  Check.has_errors ds

let gcm ppf ~obs ~failed name g =
  let p = span obs "transform.gcm.plan" (fun () -> Transform.Gcm.plan g) in
  let diags = span obs "transform.gcm.certify" (fun () -> Transform.Gcm.certify p) in
  let errors = Check.errors diags in
  span obs "ir.printer" (fun () ->
      List.iter
        (fun d -> Fmt.pf ppf "%s (gcm): %a@." name Check.Diagnostic.pp d)
        (Check.sort diags));
  if errors <> [] then begin
    Fmt.pf ppf "gcm: REFUSED (%d violation(s)); not rewritten@." (List.length errors);
    failed := true;
    g
  end
  else begin
    let s = Transform.Gcm.stats p in
    let g' =
      if s.moved = 0 then g
      else span obs "transform.gcm.apply" (fun () -> Transform.Gcm.apply p)
    in
    span obs "ir.printer" (fun () ->
        Fmt.pf ppf "gcm: %d value(s) moved (%d hoisted, %d sunk) | %d speculation-blocked@."
          s.moved s.hoisted s.sunk s.speculation_blocked);
    Obs.add_o obs "transform.gcm.moved" s.moved;
    let r = span obs "validate.equiv" (fun () -> Validate.Equiv.check ~pass:"gcm" g g') in
    span obs "ir.printer" (fun () ->
        if Validate.Equiv.ok r then
          Fmt.pf ppf "gcm diff: observably equivalent (%d runs)@." r.runs
        else begin
          List.iter
            (fun d -> Fmt.pf ppf "%s (gcm): %a@." name Check.Diagnostic.pp d)
            (Validate.Equiv.diagnostics r);
          Fmt.pf ppf "gcm diff: DISAGREE@.";
          failed := true
        end);
    g'
  end

(* gvnopt's process_routine in its Optimize action. *)
let process ppf ~(o : Workloads.opts) ~obs ~f name =
  let failed = ref false in
  let diagnose ~stage g =
    if o.check then
      span obs "check" (fun () ->
          if report_errors ppf ~stage name (Check.run_all g) then failed := true)
  in
  span obs "ir.printer" (fun () -> Fmt.pf ppf "=== %s ===@." name);
  diagnose ~stage:"input" f;
  let st = span obs "pgvn.driver" (fun () -> Pgvn.Driver.run config f) in
  span obs "ir.printer" (fun () ->
      let s = Pgvn.Driver.summarize st in
      Fmt.pf ppf
        "values: %d | unreachable: %d | constant: %d | classes: %d | reachable blocks: %d/%d | passes: %d@."
        s.values s.unreachable_values s.constant_values s.congruence_classes s.reachable_blocks
        (Ir.Func.num_blocks f) s.passes);
  let rewritten, witnesses =
    span obs "transform.apply" (fun () -> Transform.Apply.rebuild_witnessed st f)
  in
  let dced = span obs "transform.dce" (fun () -> Transform.Dce.run rewritten) in
  let g = span obs "transform.simplify_cfg" (fun () -> Transform.Simplify_cfg.fixpoint dced) in
  let g = if o.gcm then gcm ppf ~obs ~failed name g else g in
  span obs "ir.printer" (fun () ->
      Fmt.pf ppf "--- optimized (%d -> %d instrs, %d -> %d blocks) ---@.%a@."
        (Ir.Func.num_instrs f) (Ir.Func.num_instrs g) (Ir.Func.num_blocks f)
        (Ir.Func.num_blocks g) Ir.Printer.pp g);
  diagnose ~stage:"optimized" g;
  if o.validate then
    span obs "validate" (fun () ->
        let p = Validate.certify ~mode:Validate.All ~pass:"gvn+cleanup" ~witnesses f g in
        let report = Validate.Report.add Validate.Report.empty p in
        Fmt.pf ppf "validate: %a@." Validate.Report.pp_summary report;
        let errors = Validate.Report.errors report in
        List.iter (fun d -> Fmt.pf ppf "%s (validate): %a@." name Check.Diagnostic.pp d) errors;
        if errors <> [] then failed := true);
  if obs <> None then begin
    let s = st.Pgvn.State.stats in
    List.iter
      (fun (k, n) -> Obs.add_o obs k n)
      [
        ("pgvn.driver.passes", s.passes);
        ("pgvn.driver.instrs_processed", s.instrs_processed);
        ("pgvn.driver.vi_visits", s.value_inference_visits);
        ("pgvn.driver.pi_visits", s.predicate_inference_visits);
        ("pgvn.driver.pp_visits", s.phi_predication_visits);
        ("pgvn.driver.table_probes", s.table_probes);
        ("pgvn.driver.table_hits", s.table_hits);
        ("transform.apply.witnesses", List.length witnesses);
        ("transform.dce.instrs_removed", Ir.Func.num_instrs rewritten - Ir.Func.num_instrs dced);
        ("transform.simplify_cfg.blocks_removed", Ir.Func.num_blocks dced - Ir.Func.num_blocks g);
      ]
  end;
  (!failed, g)

(* gvnopt's compile_one. *)
let compile_one ~o ~cache ~obs (r : Ir.Ast.routine) =
  let cir = span obs "ir.lower" (fun () -> Ir.Lower.lower_routine r) in
  let f = span obs "ssa.construct" (fun () -> Ssa.Construct.of_cir ~pruning cir) in
  let key =
    span obs "par.ccache.key" (fun () -> Par.Ccache.key_of ~fingerprint:(fingerprint o) f)
  in
  if obs <> None then begin
    Obs.add_o obs "ssa.construct.instrs" (Ir.Func.num_instrs f);
    Obs.add_o obs "ssa.construct.phis"
      (Array.fold_left (fun n i -> if Ir.Func.is_phi i then n + 1 else n) 0 f.instrs);
    Obs.add_o obs "par.ccache.canon_bytes" (String.length key.kcanon)
  end;
  let hit =
    span obs "par.ccache.lookup" (fun () ->
        Option.map
          (fun v -> (String.sub v 1 (String.length v - 1), String.length v > 0 && v.[0] = '1'))
          (Par.Ccache.find cache key))
  in
  match hit with
  | Some (out, failed) ->
      Obs.add_o obs "par.ccache.hits" 1;
      { name = r.name; out; failed; fresh = None }
  | None ->
      Obs.add_o obs "par.ccache.misses" 1;
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      let failed, g = process ppf ~o ~obs ~f r.name in
      let out =
        span obs "ir.printer" (fun () ->
            Format.pp_print_flush ppf ();
            Buffer.contents buf)
      in
      Obs.add_o obs "ir.printer.bytes" (String.length out);
      span obs "par.ccache.add" (fun () ->
          Par.Ccache.add cache key ((if failed then "1" else "0") ^ out));
      { name = r.name; out; failed; fresh = Some (cir, f, g) }

(* Pool.map over the routines. Traced, each task runs under a private Obs
   context and stamps its start and end into its own slot. *)
let pool_map ~pool ~ledger ~o ~cache routines =
  match ledger with
  | None -> Par.Pool.map pool (fun r -> compile_one ~o ~cache ~obs:None r) routines
  | Some l ->
      let n = Array.length routines in
      let starts = Array.make n 0. and ends = Array.make n 0. in
      let workers = Array.make n None in
      let t0 = Unix.gettimeofday () in
      let results =
        span (Some l.obs) "par.pool.map" (fun () ->
            Par.Pool.map pool
              (fun i ->
                let obs = Obs.create () in
                starts.(i) <- Unix.gettimeofday ();
                let c = compile_one ~o ~cache ~obs:(Some obs) routines.(i) in
                ends.(i) <- Unix.gettimeofday ();
                workers.(i) <- Some obs;
                c)
              (Array.init n Fun.id))
      in
      l.map_wall <- l.map_wall +. (Unix.gettimeofday () -. t0);
      l.tasks <- l.tasks + n;
      for i = 0 to n - 1 do
        l.busy <- l.busy +. (ends.(i) -. starts.(i));
        l.wait <- l.wait +. (starts.(i) -. t0);
        Option.iter (fun w -> l.workers <- w :: l.workers) workers.(i)
      done;
      results

(* gvnopt's batch mode over in-memory file contents: parse each file, fan
   the routines out, concatenate the outputs in input order. The text is
   built, as gvnopt builds it, and dropped. *)
let run_batch ~o ~pool ~cache ~ledger files =
  let obs = Option.map (fun l -> l.obs) ledger in
  let routines =
    List.concat_map (fun src -> span obs "ir.parser" (fun () -> Ir.Parser.parse_program src)) files
  in
  let results = pool_map ~pool ~ledger ~o ~cache (Array.of_list routines) in
  span obs "io.stdout" (fun () ->
      ignore (String.concat "" (Array.to_list (Array.map (fun c -> c.out) results))));
  results

(* One --serve request: the response payload is a status byte then the
   batch-mode text of the request's routines, built and dropped. *)
let serve_request ~o ~pool ~cache ~ledger src =
  let obs = Option.map (fun l -> l.obs) ledger in
  let routines = span obs "ir.parser" (fun () -> Ir.Parser.parse_program src) in
  let results = pool_map ~pool ~ledger ~o ~cache (Array.of_list routines) in
  span obs "io.stdout" (fun () ->
      let failed = Array.exists (fun c -> c.failed) results in
      ignore
        (String.concat ""
           ((if failed then "1" else "0") :: Array.to_list (Array.map (fun c -> c.out) results))));
  results

(* The whole workload once, as gvnopt sees it in one round: every file in
   one batch, or every request to one server. *)
let run ~pool ~ledger (w : Workloads.t) =
  let o = w.opts and cache = Par.Ccache.create () in
  if o.serve then
    List.map (fun (_, src) -> serve_request ~o ~pool ~cache ~ledger src) w.units
  else [ run_batch ~o ~pool ~cache ~ledger (List.map snd w.units) ]
