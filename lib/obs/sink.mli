(** The single event-stream interface of the observability layer: every
    span boundary and metric update produced by {!Trace} and {!Metrics} is
    pushed through a sink, so tests can install a capturing sink and
    consumers (the Chrome-trace writer, the bench harness) never need a
    second instrumentation channel. *)

type event =
  | Span_begin of { name : string; cat : string; depth : int; ts : float }
      (** A span opened: [ts] is the absolute clock reading (seconds),
          [depth] the nesting depth at open (0 = top level). *)
  | Span_end of { name : string; cat : string; depth : int; ts : float; dur : float }
      (** The matching close: [dur] is the span's duration in seconds. *)
  | Count of { name : string; incr : int; total : int; ts : float }
      (** A counter bumped by [incr] to the new [total]. *)
  | Gauge of { name : string; value : float; ts : float }
  | Observe of { name : string; ns : int; ts : float }
      (** A latency sample recorded into a log-scale histogram. *)

type t = { emit : event -> unit }

val null : t
(** Drops everything. *)

val memory : unit -> t * (unit -> event list)
(** A capturing sink and the accessor for what it saw (oldest first). *)

val event_name : event -> string
