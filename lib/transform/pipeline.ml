(* The "HLO analog": a multi-pass scalar optimization pipeline in which GVN
   is one pass among several, so that the paper's Table 1 measurement — GVN
   time as a fraction of total optimization time — has a meaningful
   denominator.

   The pipeline is an ordered list of {!Pass.t} descriptors — name, kind,
   transform, optional certifier — run by {!run_list}. The classic lineup
   (CFG cleanup, analyses, LVN, DCE, GVN + rewrite, cleanup, with GCM
   optionally appended after the last round) is {!standard_passes}; gvnopt
   runs its own short list (GVN, DCE, CFG cleanup, optionally GCM).

   With [Options.check] the {!Check} verifier runs after every pass and the
   first broken invariant is attributed to the pass that introduced it. A
   pass's own certifier (GCM's schedule-legality check) raises
   {!Certification_failed} the same way.

   Every pass instance is an [Obs] span (cat "pass"); the [timings] list is
   a view over those spans, not a separate stopwatch, and all time
   accounting matches on the structural [pass_kind] — never the display
   name. *)

type pass_kind = Simplify_cfg | Analyses | Lvn | Dce | Gvn | Gcm

let pass_kind_name = function
  | Simplify_cfg -> "simplify-cfg"
  | Analyses -> "analyses"
  | Lvn -> "lvn"
  | Dce -> "dce"
  | Gvn -> "gvn"
  | Gcm -> "gcm"

type timing = { pass : string; kind : pass_kind; seconds : float }

let kind_seconds kind timings =
  List.fold_left (fun acc t -> if t.kind = kind then acc +. t.seconds else acc) 0.0 timings

let total_seconds_of timings = List.fold_left (fun acc t -> acc +. t.seconds) 0.0 timings

type result = {
  func : Ir.Func.t;
  timings : timing list;
  gvn_seconds : float;
  total_seconds : float;
  gvn_state : Pgvn.State.t option; (* the last GVN run's state *)
  witnesses : Validate.Witness.t list; (* the last GVN rewrite's witnesses *)
  gcm_plan : Gcm.plan option; (* the last GCM pass's certified plan *)
  validation : Validate.Report.t option; (* under [Options.validate] *)
  crosschecks : (string * Absint.Crosscheck.report) list; (* under [Options.crosscheck] *)
}

module Options = struct
  type t = {
    config : Pgvn.Config.t;
    check : bool;
    validate : Validate.mode option;
    crosscheck : bool;
    obs : Obs.t option;
  }

  let default =
    { config = Pgvn.Config.full; check = false; validate = None; crosscheck = false; obs = None }

  let with_config config t = { t with config }
  let with_check check t = { t with check }
  let with_validate validate t = { t with validate = Some validate }
  let with_crosscheck crosscheck t = { t with crosscheck }
  let with_obs obs t = { t with obs = Some obs }
end

exception
  Broken_invariant of { pass : string; diagnostics : Check.Diagnostic.t list }

exception
  Validation_failed of { pass : string; diagnostics : Check.Diagnostic.t list }

exception
  Crosscheck_failed of { pass : string; report : Absint.Crosscheck.report }

exception
  Certification_failed of { pass : string; diagnostics : Check.Diagnostic.t list }

let () =
  Printexc.register_printer (function
    | Broken_invariant { pass; diagnostics } ->
        Some
          (Fmt.str "pipeline pass %s broke %d invariant(s); first: %a" pass
             (List.length diagnostics)
             Fmt.(option Check.Diagnostic.pp)
             (List.nth_opt diagnostics 0))
    | Validation_failed { pass; diagnostics } ->
        Some
          (Fmt.str "pipeline pass %s failed validation with %d finding(s); first: %a"
             pass
             (List.length diagnostics)
             Fmt.(option Check.Diagnostic.pp)
             (List.nth_opt diagnostics 0))
    | Crosscheck_failed { pass; report } ->
        Some
          (Fmt.str "pipeline pass %s contradicted by the interval semantics: %a" pass
             Absint.Crosscheck.pp_report report)
    | Certification_failed { pass; diagnostics } ->
        Some
          (Fmt.str "pipeline pass %s refused certification with %d finding(s); first: %a"
             pass
             (List.length diagnostics)
             Fmt.(option Check.Diagnostic.pp)
             (List.nth_opt diagnostics 0))
    | _ -> None)

(* The analysis bookkeeping a real pipeline recomputes between passes:
   dominators, postdominators, dominance frontiers, loops, def-use chains
   and value liveness. *)
let analysis_pass (f : Ir.Func.t) : Ir.Func.t =
  let g = Analysis.Graph.of_func f in
  let dom = Analysis.Dom.compute g in
  let (_ : Analysis.Postdom.t) = Analysis.Postdom.compute g in
  let (_ : int array array) = Analysis.Domfront.compute g dom in
  let (_ : Analysis.Loops.forest) = Analysis.Loops.forest ~dom g in
  let (_ : int array array) = Ir.Func.def_use f in
  let (_ : Analysis.Liveness.t) = Analysis.Liveness.compute f in
  f

let guard ~obs ~check ~pass f =
  if check then
    Obs.span obs ~cat:"verify" "check" @@ fun () ->
    match Check.errors (Check.run_all f) with
    | [] -> f
    | diagnostics -> raise (Broken_invariant { pass; diagnostics })
  else f

module Pass = struct
  type ctx = {
    obs : Obs.t option;
    config : Pgvn.Config.t;
    crosscheck : bool;
    gvn_state : Pgvn.State.t option ref;
    crosschecks : (string * Absint.Crosscheck.report) list ref;
    gcm_plan : Gcm.plan option ref;
  }

  type t = {
    name : string;
    kind : pass_kind;
    transform :
      ctx -> name:string -> Ir.Func.t -> Ir.Func.t * Validate.Witness.t list;
    certifier :
      (ctx ->
      name:string ->
      before:Ir.Func.t ->
      after:Ir.Func.t ->
      Check.Diagnostic.t list)
      option;
  }

  let pure kind ~name p =
    { name; kind; transform = (fun _ ~name:_ f -> (p f, [])); certifier = None }

  let simplify_cfg ~name = pure Simplify_cfg ~name Simplify_cfg.fixpoint
  let analyses ~name = pure Analyses ~name analysis_pass
  let lvn ~name = pure Lvn ~name Lvn.run
  let dce ~name = pure Dce ~name Dce.run

  let gvn ~name:name_ =
    {
      name = name_;
      kind = Gvn;
      transform =
        (fun ctx ~name fn ->
          let st = Pgvn.Driver.run ?obs:ctx.obs ctx.config fn in
          ctx.gvn_state := Some st;
          if ctx.crosscheck then begin
            (* Static replay of the run's claims against interval facts,
               before the rewrite is even applied. *)
            let report =
              Obs.span_o ctx.obs ~cat:"verify" "crosscheck" (fun () ->
                  Absint.Crosscheck.run st)
            in
            ctx.crosschecks := (name, report) :: !(ctx.crosschecks);
            if not (Absint.Crosscheck.ok report) then
              raise (Crosscheck_failed { pass = name; report })
          end;
          Apply.rebuild_witnessed st fn);
      certifier = None;
    }

  let gcm ~name:name_ =
    {
      name = name_;
      kind = Gcm;
      transform =
        (fun ctx ~name fn ->
          match Gcm.run ?obs:ctx.obs fn with
          | f', plan ->
              ctx.gcm_plan := Some plan;
              (f', [])
          | exception Gcm.Rejected { diagnostics } ->
              raise (Certification_failed { pass = name; diagnostics }));
      (* Second opinion from the other side of the fence: the output
         function's own (identity) schedule must still be legal. *)
      certifier =
        Some
          (fun _ ~name:_ ~before:_ ~after ->
            Check.errors (Check.Schedule.run after));
    }
end

let standard_round round =
  let n kind = Printf.sprintf "%s#%d" (pass_kind_name kind) round in
  [
    Pass.simplify_cfg ~name:(n Simplify_cfg);
    Pass.analyses ~name:(n Analyses);
    Pass.lvn ~name:(n Lvn);
    Pass.dce ~name:(n Dce);
    Pass.analyses ~name:(n Analyses);
    Pass.gvn ~name:(n Gvn);
    Pass.dce ~name:(n Dce);
    Pass.analyses ~name:(n Analyses);
    Pass.simplify_cfg ~name:(n Simplify_cfg);
    Pass.lvn ~name:(n Lvn);
    Pass.dce ~name:(n Dce);
  ]

let standard_passes ?(rounds = 2) ?(gcm = false) () =
  List.concat (List.init rounds (fun i -> standard_round (i + 1)))
  @ if gcm then [ Pass.gcm ~name:"gcm#1" ] else []

let run_list (opts : Options.t) (passes : Pass.t list) (f : Ir.Func.t) : result =
  let { Options.config; check; validate; crosscheck; obs = user_obs } = opts in
  (* The pipeline's own spans always land in an observability context — a
     private one when the caller installs none — so the trace is the single
     source of truth for time accounting. The passes see only the caller's
     context: an untraced run does no engine instrumentation. *)
  let obs = match user_obs with Some o -> o | None -> Obs.create () in
  let timings = ref [] in
  let gvn_state = ref None in
  let witnesses = ref [] in
  let gcm_plan = ref None in
  let vreport = ref Validate.Report.empty in
  let xreports = ref [] in
  let ctx =
    { Pass.obs = user_obs; config; crosscheck; gvn_state; crosschecks = xreports; gcm_plan }
  in
  (* Certify one pass instance under the requested validation mode. The
     analyses pass is the identity and is skipped; witness audits only ever
     apply to the GVN pass (the only pass that emits witnesses). *)
  let validate_pass ~name ~before ~after ~witnesses =
    match validate with
    | None -> ()
    | Some mode ->
        if Validate.diffs mode || witnesses <> [] then begin
          let p = Validate.certify ~obs ~mode ~pass:name ~witnesses before after in
          vreport := Validate.Report.add !vreport p;
          match List.filter Check.Diagnostic.is_error (Validate.Report.pass_diagnostics p) with
          | [] -> ()
          | diagnostics -> raise (Validation_failed { pass = name; diagnostics })
        end
  in
  let time_pass (p : Pass.t) x =
    let name = p.Pass.name in
    let sp = Obs.Trace.begin_span obs.Obs.trace ~cat:"pass" name in
    let y, ws = p.Pass.transform ctx ~name x in
    Obs.Trace.end_span obs.Obs.trace sp;
    if p.Pass.kind = Gvn then witnesses := ws;
    timings := { pass = name; kind = p.Pass.kind; seconds = Obs.Trace.duration sp } :: !timings;
    Obs.observe_seconds obs "pipeline.pass_ns" (Obs.Trace.duration sp);
    let y = guard ~obs ~check ~pass:name y in
    (match p.Pass.certifier with
    | None -> ()
    | Some cert -> (
        match cert ctx ~name ~before:x ~after:y with
        | [] -> ()
        | diagnostics -> raise (Certification_failed { pass = name; diagnostics })));
    if p.Pass.kind <> Analyses then validate_pass ~name ~before:x ~after:y ~witnesses:ws;
    y
  in
  let pipeline_span = Obs.Trace.begin_span obs.Obs.trace ~cat:"pipeline" "pipeline" in
  Fun.protect ~finally:(fun () -> Obs.Trace.end_span obs.Obs.trace pipeline_span)
  @@ fun () ->
  Obs.add obs "pipeline.runs" 1;
  let current = ref (guard ~obs ~check ~pass:"input" f) in
  List.iter (fun p -> current := time_pass p !current) passes;
  Obs.Trace.end_span obs.Obs.trace pipeline_span;
  let timings = List.rev !timings in
  {
    func = !current;
    timings;
    (* Accounting matches on [kind] only: a display name may collide (a
       future pass could be called "gvn-lite#1") without skewing Table 1. *)
    gvn_seconds = kind_seconds Gvn timings;
    total_seconds = Obs.Trace.duration pipeline_span;
    gvn_state = !gvn_state;
    witnesses = !witnesses;
    gcm_plan = !gcm_plan;
    validation = (match validate with None -> None | Some _ -> Some !vreport);
    crosschecks = List.rev !xreports;
  }
