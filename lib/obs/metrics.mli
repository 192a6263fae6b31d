(** Named counters, gauges and log-scale latency histograms ({!Hist}).
    Metric names are a stable contract (see DESIGN.md §4d): dotted
    lowercase identifiers, `<subsystem>.<what>` — consumers (the bench
    harness, the CLI's [--metrics] dump, CI) key on them. Every update is
    also streamed to the installed {!Sink}.

    A registry is safe under concurrent writers: every operation takes the
    registry's internal mutex, so totals are exact whichever domains bump
    them (sink callbacks run inside that mutex and must not re-enter the
    registry). Read histograms through {!snapshot}. *)

type t

val create : ?clock:(unit -> float) -> ?sink:Sink.t -> unit -> t

(** {1 Counters} *)

val add : t -> string -> int -> unit
val incr : t -> string -> unit
val counter : t -> string -> int
(** Current total (0 when never bumped). *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
val max_gauge : t -> string -> float -> unit
(** Keep the maximum of the current and the given value. *)

val gauge : t -> string -> float option

(** {1 Latency histograms} *)

val observe_ns : t -> string -> int -> unit

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * float) list;
  hists : (string * (int * int) list) list;  (** (bucket, count), sorted *)
}

val snapshot : t -> snapshot
val merge_into : dst:t -> t -> unit
(** Fold one context's totals into another (counters add, gauges max,
    histogram buckets add) — how per-routine metrics aggregate. *)

val pp : Format.formatter -> t -> unit
(** Stable, name-sorted rendering: one [name value] line per counter and
    gauge, one [name total/p50/p99] line per histogram. *)
