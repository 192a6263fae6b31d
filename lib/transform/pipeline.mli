(** The "HLO analog": a multi-round scalar optimization pipeline in which
    GVN is one pass among several — the setting of the paper's Table 1,
    which measures GVN's share of total optimization time.

    The pipeline is an ordered list of {!Pass.t} descriptors run by
    {!run_list}; {!standard_passes} builds the classic lineup (per round:
    CFG cleanup, analyses, LVN, DCE, GVN + rewrite, cleanup; optionally
    one GCM pass after the last round). [gvnopt] composes its own list
    from its flags: GVN + rewrite, DCE, CFG cleanup, and GCM under
    [--gcm]. {!run_list} is also the one place a compile is certified:
    pass certifiers, GCM's behaviour diff and the translation validator
    all run there, and their verdicts land in its {!result}.

    Every pass instance is an {!Obs} span (category ["pass"]); the
    [timings] list is a view over those spans — there is no second
    stopwatch — and all time accounting matches on the structural
    {!pass_kind}, never on the display name. *)

type pass_kind = Simplify_cfg | Analyses | Lvn | Dce | Gvn | Gcm

val pass_kind_name : pass_kind -> string

type timing = { pass : string; kind : pass_kind; seconds : float }
(** [pass] is the display name ("gvn#2"); [kind] identifies the pass
    structurally — time accounting matches on it, not on the name. *)

val kind_seconds : pass_kind -> timing list -> float
(** Total seconds of the passes of one kind, matching on [kind] only: a
    display name containing "gvn" never counts toward the GVN total. *)

val total_seconds_of : timing list -> float
(** Sum over all passes. *)

type gcm_report = {
  plan : Gcm.plan;
      (** the certified plan: {!Gcm.stats} and {!Gcm.moves} read it, and
          [placement.func] is the function before motion *)
  diff : Validate.Equiv.report option;
      (** the behaviour diff across the motion, under [Pass.gcm ~diff:true] *)
}

type result = {
  func : Ir.Func.t;  (** the function the last pass left, refused passes undone *)
  timings : timing list;  (** per-pass wall-clock times, in order *)
  gvn_seconds : float;  (** [kind_seconds Gvn timings] *)
  total_seconds : float;  (** duration of the whole pipeline span *)
  gvn_state : Pgvn.State.t option;  (** state of the last GVN run *)
  gcm : gcm_report option;
      (** the last GCM pass's plan, once the plan and the output's schedule
          are certified; [None] when either was refused *)
  refused : (string * Check.Diagnostic.t list) list;
      (** the passes that were undone, in order, each with the diagnostics
          its plan or certifier refused it with (GCM's [sched-*] errors, or
          [validate-behavior] ones from its diff) *)
  validation : Validate.Report.t option;
      (** the translation validator's verdicts and overhead, under
          [Options.validate] *)
}

(** How to run a pass list: the GVN configuration, the checks, and the
    observability context. Build from {!Options.default} with the
    [with_*] builders:

    {[
      let opts = Pipeline.Options.(default |> with_check true) in
      Pipeline.run_list opts (Pipeline.standard_passes ~rounds:1 ()) f
    ]} *)
module Options : sig
  (** What the translation validator certifies: every pass instance on its
      own, or the whole list as one step under a caller-given name. *)
  type scope = Each_pass | Whole of string

  type t = {
    config : Pgvn.Config.t;
    check : bool;  (** verify invariants after every pass *)
    validate : (Validate.mode * scope) option;  (** translation validation *)
    obs : Obs.t option;
        (** observability context the run's spans and metrics land in, and
            the one the passes and certifiers see; when absent the pipeline
            times its passes in a private context and the passes run
            uninstrumented *)
  }

  val default : t
  (** {!Pgvn.Config.full}, no checking, no validation, no caller
      observability. *)

  val with_config : Pgvn.Config.t -> t -> t
  val with_check : bool -> t -> t

  val with_validate : ?whole:string -> Validate.mode -> t -> t
  (** Validate every pass, or with [~whole:name] the whole list as one
      step named [name]. *)

  val with_obs : Obs.t -> t -> t
end

exception
  Broken_invariant of { pass : string; diagnostics : Check.Diagnostic.t list }
(** Raised under [Options.check] when a pass's output fails the verifier:
    [pass] names the offending pass and round ("lvn#1"; "input" for the
    function as given), [diagnostics] the Error-severity findings. *)

(** Pass descriptors: what {!run_list} runs. A pass is a named transform
    plus an optional certifier; the runner times it (one Obs span per
    instance), guards it under [Options.check], certifies it, undoes it
    when refused, and translation-validates it under [Options.validate]. *)
module Pass : sig
  (** Shared pipeline state a transform or certifier may read or update:
      the caller's observability context, the GVN configuration, and the
      result accumulators ([gvn_state], [gcm]). *)
  type ctx = {
    obs : Obs.t option;
    config : Pgvn.Config.t;
    gvn_state : Pgvn.State.t option ref;
    gcm : gcm_report option ref;
  }

  type t = {
    name : string;  (** display name, e.g. "gvn#2" — spans and attribution *)
    kind : pass_kind;  (** structural identity — time accounting *)
    transform :
      ctx ->
      name:string ->
      Ir.Func.t ->
      (Ir.Func.t * Validate.Witness.t list, Check.Diagnostic.t list) Stdlib.result;
        (** the rewrite, with the witnesses the translation validator
            audits; [Error] refuses the pass before it rewrites anything *)
    certifier :
      (ctx ->
      name:string ->
      before:Ir.Func.t ->
      after:Ir.Func.t ->
      Check.Diagnostic.t list)
      option;
        (** pass-specific certification; any returned diagnostic refuses
            the pass *)
  }

  val simplify_cfg : name:string -> t
  val analyses : name:string -> t
  val lvn : name:string -> t
  val dce : name:string -> t

  val gvn : name:string -> t
  (** {!Pgvn.Driver.run} under [ctx.config] + {!Apply.rebuild_witnessed};
      records [ctx.gvn_state]. *)

  val gcm : diff:bool -> name:string -> t
  (** {!Gcm.run}: plan, certify against {!Check.Schedule} (a refuted plan
      refuses the pass), rebuild; records [ctx.gcm]. Its certifier
      re-verifies the {e output}'s identity schedule, then under [diff]
      compares observable behaviour across the motion with
      {!Validate.Equiv.check} (span [gcm.diff]; the report goes on
      [ctx.gcm], and a mismatch refuses the pass). *)
end

val standard_passes : ?rounds:int -> ?gcm:bool -> unit -> Pass.t list
(** [rounds] (default 2) rounds of {!standard_round}, plus a final GCM
    pass (without the behaviour diff) when [gcm] (default false). *)

val run_list : Options.t -> Pass.t list -> Ir.Func.t -> result
(** Run an ordered pass list. This is the one place a compile is
    certified, and every verdict lands in the result; only
    {!Broken_invariant} is raised. With [Options.check], {!Check.run_all}
    runs on the input and after every pass; the first Error-severity
    diagnostic raises {!Broken_invariant} attributed to the pass that
    introduced it. A pass whose transform refuses, or whose certifier
    returns any diagnostic, is undone: the next pass, and
    [result.func], get the function it was given, and its diagnostics go
    on [result.refused]. With [Options.validate] the translation validator
    ({!Validate.certify}) audits the GVN pass's witnesses against the
    independent oracle (modes [Witness]/[All]) and diffs observable
    behaviour through the interpreter (modes [Diff]/[All]): per pass
    ([Each_pass]; [Analyses]-kind passes are exempt as the identity), or
    once from the input to the final function ([Whole name], one report
    entry named [name], fed the last GVN pass's witnesses when no earlier
    pass changed the input). Its verdicts, refutations included, are
    [result.validation]. With [Options.obs] all spans, counters and
    histograms land in the caller's context. *)
