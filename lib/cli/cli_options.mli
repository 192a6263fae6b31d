(** Option wiring shared by the two binaries ([bin/gvnopt.ml] and
    [bench/main.ml]), so their flag vocabularies cannot drift: the GVN
    preset table, the per-analysis disable toggles, SSA pruning modes, and
    the observability flags ([--trace=FILE], [--metrics]) with the
    create/finish lifecycle of the {!Obs} context they select. *)

(** {1 GVN presets} *)

val preset_names : string list
(** In documentation order: full, balanced, pessimistic, basic, dense,
    click, sccp, awz. *)

val preset_of_string : string -> (Pgvn.Config.t, string) result

(** {1 Per-analysis toggles (the [--no-*] flags and [--complete])} *)

type toggles = {
  complete : bool;  (** incremental reachable dominator tree variant *)
  no_reassociation : bool;
  no_predicate_inference : bool;
  no_value_inference : bool;
  no_phi_predication : bool;
  no_sparse : bool;
}

val no_toggles : toggles
val apply_toggles : toggles -> Pgvn.Config.t -> Pgvn.Config.t

(** {1 SSA pruning} *)

val pruning_of_string : string -> (Ssa.Construct.pruning, string) result

(** {1 Observability flags} *)

type obs_opts = {
  trace_file : string option;  (** [--trace=FILE]: Chrome-trace JSON sink *)
  metrics : bool;  (** [--metrics]: print the metrics snapshot on exit *)
}

val parse_obs_args : string list -> obs_opts * string list
(** Strip [--trace=FILE], [--trace FILE] and [--metrics] from an argument
    list (for the bench harness's hand-rolled parser), returning the
    recognized options and the remaining arguments. *)

val obs_of : obs_opts -> Obs.t option
(** The context the options call for: [Some] when any flag is set, else
    [None]. *)

val finish : obs_opts -> Obs.t option -> unit
(** The end-of-run half of the lifecycle: write the Chrome trace to
    [trace_file] and print the metrics snapshot to stdout under
    [metrics]. *)
