(** Per-routine strength metrics (§5) — unreachable values and constant
    values (more is better; unreachable counted as constant, the paper's
    correction) and congruence classes (fewer is better) — and the
    comparison of two configurations over a routine set. *)

type metrics = { unreachable : int; constants : int; classes : int }

type comparison = {
  unreachable : Histogram.t;
  constants : Histogram.t;
  classes : Histogram.t;  (** improvement = baseline - ours *)
}

val compare_configs :
  config:Pgvn.Config.t -> baseline:Pgvn.Config.t -> Ir.Func.t list -> comparison
(** Positive improvements mean [config] is stronger than [baseline]. *)

val pp : Format.formatter -> comparison -> unit
