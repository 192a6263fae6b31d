(** Aggregation of validation results across a pipeline run. *)

type pass = {
  pass : string;  (** pass instance name, e.g. ["gvn#1"] *)
  seconds : float;  (** validation overhead for this pass *)
  audit : Audit.report option;
  equiv : Equiv.report option;
}

type t = { passes : pass list }

val empty : t
val add : t -> pass -> t

val pass_diagnostics : pass -> Check.Diagnostic.t list
val errors : t -> Check.Diagnostic.t list
val clean : t -> bool
(** No Error-severity diagnostics (precision-win Infos are fine). *)

val overhead_seconds : t -> float

type totals = {
  witnesses : int;
  certified : int;
  unproven : int;
  rejected : int;
  equiv_runs : int;
  mismatches : int;
}

val totals : t -> totals
val pp_summary : Format.formatter -> t -> unit
