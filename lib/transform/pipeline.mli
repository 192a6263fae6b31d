(** The "HLO analog": a multi-round scalar optimization pipeline in which
    GVN is one pass among several — the setting of the paper's Table 1,
    which measures GVN's share of total optimization time.

    The pipeline is an ordered list of {!Pass.t} descriptors run by
    {!run_list}; {!standard_passes} builds the classic lineup (per round:
    CFG cleanup, analyses, LVN, DCE, GVN + rewrite, cleanup; optionally
    one GCM pass after the last round). [gvnopt] composes its own list
    from its flags: GVN + rewrite, DCE, CFG cleanup, and GCM under
    [--gcm].

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

type result = {
  func : Ir.Func.t;
  timings : timing list;  (** per-pass wall-clock times, in order *)
  gvn_seconds : float;  (** [kind_seconds Gvn timings] *)
  total_seconds : float;  (** duration of the whole pipeline span *)
  gvn_state : Pgvn.State.t option;  (** state of the last GVN run *)
  witnesses : Validate.Witness.t list;
      (** the last GVN rewrite's witnesses, for whole-path certification *)
  gcm_plan : Gcm.plan option;
      (** the last GCM pass's certified plan: {!Gcm.stats} and {!Gcm.moves}
          read it, and [placement.func] is the function before motion *)
  validation : Validate.Report.t option;
      (** per-pass validation results and overhead, under [Options.validate] *)
  crosschecks : (string * Absint.Crosscheck.report) list;
      (** per-GVN-pass static cross-check reports, under [Options.crosscheck] *)
}

(** How to run a pass list: the GVN configuration, the per-pass checks,
    and the observability context. Build from {!Options.default} with the
    [with_*] builders:

    {[
      let opts = Pipeline.Options.(default |> with_check true) in
      Pipeline.run_list opts (Pipeline.standard_passes ~rounds:1 ()) f
    ]} *)
module Options : sig
  type t = {
    config : Pgvn.Config.t;
    check : bool;  (** verify invariants after every pass *)
    validate : Validate.mode option;  (** translation-validate every pass *)
    crosscheck : bool;  (** statically cross-check each GVN run *)
    obs : Obs.t option;
        (** observability context the run's spans and metrics land in, and
            the one the passes see; when absent the pipeline times its
            passes in a private context and the passes run uninstrumented *)
  }

  val default : t
  (** {!Pgvn.Config.full}, no checking, no validation, no cross-checking,
      no caller observability. *)

  val with_config : Pgvn.Config.t -> t -> t
  val with_check : bool -> t -> t
  val with_validate : Validate.mode -> t -> t
  val with_crosscheck : bool -> t -> t
  val with_obs : Obs.t -> t -> t
end

exception
  Broken_invariant of { pass : string; diagnostics : Check.Diagnostic.t list }
(** Raised under [Options.check] when a pass's output fails the verifier:
    [pass] names the offending pass and round ("lvn#1"; "input" for the
    function as given), [diagnostics] the Error-severity findings. *)

exception
  Validation_failed of { pass : string; diagnostics : Check.Diagnostic.t list }
(** Raised under [Options.validate] when the translation validator refutes
    a pass: a rejected rewrite witness or an observable behavior change,
    attributed to the pass instance ([pass] is e.g. "gvn#1") with
    Error-severity findings carrying the precise location and evidence. *)

exception Crosscheck_failed of { pass : string; report : Absint.Crosscheck.report }
(** Raised under [Options.crosscheck] when the static cross-checker finds a
    GVN claim the interval semantics contradicts. *)

exception
  Certification_failed of { pass : string; diagnostics : Check.Diagnostic.t list }
(** Raised when a pass's own certifier refuses its output, or when GCM's
    planned placement is refuted by {!Check.Schedule} before the rewrite
    ([pass] is e.g. "gcm#1", [diagnostics] the pinned [sched-*] errors). *)

(** Pass descriptors: what {!run_list} runs. A pass is a named transform
    plus an optional certifier; the runner times it (one Obs span per
    instance), guards it under [Options.check], certifies it, and
    translation-validates it under [Options.validate]. *)
module Pass : sig
  (** Shared pipeline state a transform may read or update: the caller's
      observability context, the GVN configuration, and the result
      accumulators ([gvn_state], [crosschecks], [gcm_plan]). *)
  type ctx = {
    obs : Obs.t option;
    config : Pgvn.Config.t;
    crosscheck : bool;
    gvn_state : Pgvn.State.t option ref;
    crosschecks : (string * Absint.Crosscheck.report) list ref;
    gcm_plan : Gcm.plan option ref;
  }

  type t = {
    name : string;  (** display name, e.g. "gvn#2" — spans and attribution *)
    kind : pass_kind;  (** structural identity — time accounting *)
    transform :
      ctx -> name:string -> Ir.Func.t -> Ir.Func.t * Validate.Witness.t list;
        (** the rewrite; witnesses feed the translation validator *)
    certifier :
      (ctx ->
      name:string ->
      before:Ir.Func.t ->
      after:Ir.Func.t ->
      Check.Diagnostic.t list)
      option;
        (** pass-specific certification; any returned diagnostic raises
            {!Certification_failed} *)
  }

  val simplify_cfg : name:string -> t
  val analyses : name:string -> t
  val lvn : name:string -> t
  val dce : name:string -> t

  val gvn : name:string -> t
  (** {!Pgvn.Driver.run} under [ctx.config] + {!Apply.rebuild_witnessed};
      records [ctx.gvn_state]; under [ctx.crosscheck] statically replays
      the run's claims and raises {!Crosscheck_failed} on contradiction. *)

  val gcm : name:string -> t
  (** {!Gcm.run}: plan, certify against {!Check.Schedule} (a refuted plan
      raises {!Certification_failed}), rebuild; records [ctx.gcm_plan].
      Its certifier re-verifies the {e output}'s identity schedule. *)
end

val standard_passes : ?rounds:int -> ?gcm:bool -> unit -> Pass.t list
(** [rounds] (default 2) rounds of {!standard_round}, plus a final GCM
    pass when [gcm] (default false). *)

val run_list : Options.t -> Pass.t list -> Ir.Func.t -> result
(** Run an ordered pass list. With [Options.check], {!Check.run_all} runs
    on the input and after every pass; the first Error-severity diagnostic
    raises {!Broken_invariant} attributed to the pass that introduced it.
    Each pass's own certifier (if any) then runs on its output — a
    returned diagnostic raises {!Certification_failed}. With
    [Options.validate] every rewriting pass is certified by the
    translation validator ({!Validate.certify}): the GVN pass's witnesses
    are audited against the independent oracle (modes [Witness]/[All]) and
    every pass's observable behavior is diffed through the interpreter
    (modes [Diff]/[All]); a refuted pass raises {!Validation_failed}.
    [Analyses]-kind passes are exempt from validation (identity). With
    [Options.crosscheck] each GVN run's decided branches, predicate
    inferences, φ block predicates and constants are statically replayed
    against interval facts ({!Absint.Crosscheck}) before the rewrite; a
    contradicted claim raises {!Crosscheck_failed}. With [Options.obs] all
    spans, counters and histograms land in the caller's context. *)
