(* The "HLO analog": a multi-pass scalar optimization pipeline in which GVN
   is one pass among several, so that the paper's Table 1 measurement — GVN
   time as a fraction of total optimization time — has a meaningful
   denominator.

   The pipeline is an ordered list of {!Pass.t} descriptors — name, kind,
   transform, optional certifier — run by {!run_list}. The classic lineup
   (CFG cleanup, analyses, LVN, DCE, GVN + rewrite, cleanup, with GCM
   optionally appended after the last round) is {!standard_passes}; gvnopt
   runs its own short list (GVN, DCE, CFG cleanup, optionally GCM).

   [run_list] is the one place a compile is certified. With
   [Options.check] the {!Check} verifier runs after every pass and the
   first broken invariant is attributed to the pass that introduced it. A
   pass whose transform or certifier refuses (GCM's schedule-legality
   check and behaviour diff) is undone and its diagnostics recorded; the
   translation validator's verdicts, per pass or over the whole list, are
   recorded the same way.

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

type gcm_report = { plan : Gcm.plan; diff : Validate.Equiv.report option }

type result = {
  func : Ir.Func.t;
  timings : timing list;
  gvn_seconds : float;
  total_seconds : float;
  gvn_state : Pgvn.State.t option; (* the last GVN run's state *)
  gcm : gcm_report option; (* the last GCM pass's certified plan and diff *)
  refused : (string * Check.Diagnostic.t list) list; (* undone passes, in order *)
  validation : Validate.Report.t option; (* under [Options.validate] *)
}

module Options = struct
  type scope = Each_pass | Whole of string

  type t = {
    config : Pgvn.Config.t;
    check : bool;
    validate : (Validate.mode * scope) option;
    obs : Obs.t option;
  }

  let default = { config = Pgvn.Config.full; check = false; validate = None; obs = None }
  let with_config config t = { t with config }
  let with_check check t = { t with check }

  let with_validate ?whole mode t =
    let scope = match whole with Some name -> Whole name | None -> Each_pass in
    { t with validate = Some (mode, scope) }

  let with_obs obs t = { t with obs = Some obs }
end

exception
  Broken_invariant of { pass : string; diagnostics : Check.Diagnostic.t list }

let () =
  Printexc.register_printer (function
    | Broken_invariant { pass; diagnostics } ->
        Some
          (Fmt.str "pipeline pass %s broke %d invariant(s); first: %a" pass
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
    gvn_state : Pgvn.State.t option ref;
    gcm : gcm_report option ref;
  }

  type t = {
    name : string;
    kind : pass_kind;
    transform :
      ctx ->
      name:string ->
      Ir.Func.t ->
      (Ir.Func.t * Validate.Witness.t list, Check.Diagnostic.t list) Stdlib.result;
    certifier :
      (ctx ->
      name:string ->
      before:Ir.Func.t ->
      after:Ir.Func.t ->
      Check.Diagnostic.t list)
      option;
  }

  let pure kind ~name p =
    { name; kind; transform = (fun _ ~name:_ f -> Ok (p f, [])); certifier = None }

  let simplify_cfg ~name = pure Simplify_cfg ~name Simplify_cfg.fixpoint
  let analyses ~name = pure Analyses ~name analysis_pass
  let lvn ~name = pure Lvn ~name Lvn.run
  let dce ~name = pure Dce ~name Dce.run

  let gvn ~name =
    {
      name;
      kind = Gvn;
      transform =
        (fun ctx ~name:_ fn ->
          let st = Pgvn.Driver.run ?obs:ctx.obs ctx.config fn in
          ctx.gvn_state := Some st;
          Ok (Apply.rebuild_witnessed st fn));
      certifier = None;
    }

  let gcm ~diff ~name =
    {
      name;
      kind = Gcm;
      transform =
        (fun ctx ~name:_ fn ->
          match Gcm.run ?obs:ctx.obs fn with
          | f', plan ->
              ctx.gcm := Some { plan; diff = None };
              Ok (f', [])
          | exception Gcm.Rejected { diagnostics } ->
              ctx.gcm := None;
              Error diagnostics);
      (* Second opinion from the other side of the fence: the output
         function's own (identity) schedule must still be legal. Then,
         under [diff], the motion alone must be observably invisible. *)
      certifier =
        Some
          (fun ctx ~name ~before ~after ->
            match Check.errors (Check.Schedule.run after) with
            | _ :: _ as refuted ->
                ctx.gcm := None;
                refuted
            | [] when not diff -> []
            | [] ->
                let r =
                  Obs.span_o ctx.obs ~cat:"verify" "gcm.diff" @@ fun () ->
                  Validate.Equiv.check ~pass:name before after
                in
                ctx.gcm := Option.map (fun g -> { g with diff = Some r }) !(ctx.gcm);
                Validate.Equiv.diagnostics r);
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
  @ if gcm then [ Pass.gcm ~diff:false ~name:"gcm#1" ] else []

let run_list (opts : Options.t) (passes : Pass.t list) (f : Ir.Func.t) : result =
  let { Options.config; check; validate; obs = user_obs } = opts in
  (* The pipeline's own spans always land in an observability context — a
     private one when the caller installs none — so the trace is the single
     source of truth for time accounting. The passes and certifiers see
     only the caller's context: an untraced run does no instrumentation. *)
  let obs = match user_obs with Some o -> o | None -> Obs.create () in
  let timings = ref [] in
  let ctx = { Pass.obs = user_obs; config; gvn_state = ref None; gcm = ref None } in
  (* The last GVN pass's witnesses and the function they describe. *)
  let witnesses = ref [] and gvn_input = ref f in
  let refused = ref [] in
  let vreport = ref Validate.Report.empty in
  let certify ~mode ~pass ~witnesses before after =
    vreport :=
      Validate.Report.add !vreport
        (Validate.certify ?obs:user_obs ~mode ~pass ~witnesses before after)
  in
  (* Run one pass instance; a refused pass is undone: the next pass gets
     the function this one was given. *)
  let run_pass x (p : Pass.t) =
    let name = p.Pass.name in
    let sp = Obs.Trace.begin_span obs.Obs.trace ~cat:"pass" name in
    let out = p.Pass.transform ctx ~name x in
    Obs.Trace.end_span obs.Obs.trace sp;
    timings := { pass = name; kind = p.Pass.kind; seconds = Obs.Trace.duration sp } :: !timings;
    Obs.observe_seconds obs "pipeline.pass_ns" (Obs.Trace.duration sp);
    let out =
      Result.bind out (fun (y, ws) ->
          let y = guard ~obs ~check ~pass:name y in
          match p.Pass.certifier with
          | None -> Ok (y, ws)
          | Some cert -> (
              match cert ctx ~name ~before:x ~after:y with [] -> Ok (y, ws) | ds -> Error ds))
    in
    match out with
    | Error ds ->
        refused := (name, ds) :: !refused;
        x
    | Ok (y, ws) ->
        if p.Pass.kind = Gvn then begin
          witnesses := ws;
          gvn_input := x
        end;
        (* The analyses pass is the identity; witness audits only ever
           apply to the GVN pass (the only pass that emits witnesses). *)
        (match validate with
        | Some (mode, Options.Each_pass)
          when p.Pass.kind <> Analyses && (Validate.diffs mode || ws <> []) ->
            certify ~mode ~pass:name ~witnesses:ws x y
        | _ -> ());
        y
  in
  let pipeline_span = Obs.Trace.begin_span obs.Obs.trace ~cat:"pipeline" "pipeline" in
  Fun.protect ~finally:(fun () -> Obs.Trace.end_span obs.Obs.trace pipeline_span)
  @@ fun () ->
  Obs.add obs "pipeline.runs" 1;
  let f = guard ~obs ~check ~pass:"input" f in
  let g = List.fold_left run_pass f passes in
  (match validate with
  | Some (mode, Options.Whole pass) ->
      (* Witnesses describe the GVN pass's input: audit them against the
         list's input only when no pass before GVN changed it. *)
      let witnesses = if !gvn_input == f then !witnesses else [] in
      certify ~mode ~pass ~witnesses f g
  | _ -> ());
  Obs.Trace.end_span obs.Obs.trace pipeline_span;
  let timings = List.rev !timings in
  {
    func = g;
    timings;
    (* Accounting matches on [kind] only: a display name may collide (a
       future pass could be called "gvn-lite#1") without skewing Table 1. *)
    gvn_seconds = kind_seconds Gvn timings;
    total_seconds = Obs.Trace.duration pipeline_span;
    gvn_state = !(ctx.gvn_state);
    gcm = !(ctx.gcm);
    refused = List.rev !refused;
    validation = Option.map (fun _ -> !vreport) validate;
  }
