(** Global Code Motion (Click, PLDI '95): the transform half of
    [lib/schedule]. {!Schedule.Placement} proposes, per SSA value, the best
    legal block (latest block of minimum loop depth on the dominator path
    from the late schedule up to the early schedule); this pass rewrites
    the function so every movable value actually sits there — hoisting
    loop-invariant computations out of their loops and sinking values
    toward their uses — while φs, opaque calls and uncleared faulting ops
    stay pinned to their blocks.

    Certification is two-sided and never trusted to the planner: the
    proposed placement is verified by the independent legality checker
    ({!Check.Schedule.run} with [~placement]) {e before} the rebuild, and
    callers are expected to diff observable behavior across the rebuild
    (the pipeline and [gvnopt --gcm] both do, through Engine 2). A plan
    the checker refutes raises {!Rejected} and rewrites nothing.

    The rebuilt function has the same CFG (blocks, edges, terminators and
    φs in their original shape); only the block assignment and the
    within-block order of non-φ values change. Within a block, values are
    laid out in dependency order (φs first, terminator last, as the IR
    requires). *)

type stats = {
  values : int;  (** reachable value definitions considered *)
  moved : int;  (** values whose block assignment changed *)
  hoisted : int;  (** moved and {!Schedule.Placement.hoistable} *)
  sunk : int;  (** moved and {!Schedule.Placement.sinkable} *)
  speculation_blocked : int;  (** pinned specifically for trap safety *)
}

type plan = {
  placement : Schedule.Placement.t;  (** the analysis the plan came from *)
  target : Check.Schedule.placement;
      (** per-value destination blocks: [best] for movable values, the
          current block for everything else *)
}

exception Rejected of { diagnostics : Check.Diagnostic.t list }
(** The legality checker refuted the plan ([sched-*] Error diagnostics).
    Raised by {!run} before anything is rewritten — a refused plan leaves
    the input function untouched. *)

val plan : ?obs:Obs.t -> Ir.Func.t -> plan
(** Run the placement analysis and gate every value through
    {!Schedule.Placement.movable}. *)

val moves : plan -> (Ir.Func.value * int * int) list
(** The values the plan actually moves, as [(v, from_block, to_block)], in
    value order — the [--gcm=dump] payload. *)

val stats : plan -> stats

val certify : plan -> Check.Diagnostic.t list
(** The independent verdict: {!Check.Schedule.run} [~placement:plan.target]
    on the input function. Empty (of errors) before {!apply} may run. *)

val apply : ?obs:Obs.t -> plan -> Ir.Func.t
(** Rebuild with every value at its target block. Call only on a certified
    plan: an illegal placement surfaces as a builder/validation error, not
    a diagnostic. Emits a [gcm.rebuild] span under [obs]. *)

val run : ?obs:Obs.t -> Ir.Func.t -> Ir.Func.t * plan
(** [plan], {!certify} (raising {!Rejected} on any Error-severity
    diagnostic), then {!apply} — skipping the rebuild entirely when the
    plan moves nothing. Returns the certified plan with the rewritten
    function: {!stats} and {!moves} read it, and [plan.placement.func] is
    the function before motion. Emits a [gcm] span and the [gcm.*] counters
    ([gcm.values], [gcm.moved], [gcm.hoisted], [gcm.sunk],
    [gcm.speculation_blocked]) under [obs]. *)
