(** Per-value legal placement ranges, after Click's "Global Code Motion,
    Global Value Numbering" (PLDI '95): for every SSA value the {e early}
    schedule (shallowest dominator-tree block where all operands are
    available), the {e late} schedule (dominator-tree LCA of its uses, with
    φ uses attributed to the predecessor edge that carries them), and the
    {e best} block — the latest block of minimum loop depth on the
    dominator-tree path from late up to early. Values classified pinned by
    {!Speculate} (φs, opaque calls, uncleared faulting ops) keep their
    current block: early = late = best = block.

    This is the analysis half of a GCM transform: it proposes placements
    but rewrites nothing. {!Check.Schedule} independently verifies any
    proposed placement, including the identity. *)

type t = {
  func : Ir.Func.t;
  ctx : Analysis.Ctx.t;
      (** [func]'s graph, dominators, postdominators and loop forest; the
          interval facts in [ranges] were computed over the same context *)
  ranges : Absint.Ranges.result;
  safety : Speculate.t array;  (** per instruction id *)
  early : int array;  (** per instruction id; own block for non-values *)
  late : int array;
  best : int array;
}

type stats = {
  values : int;  (** reachable value definitions *)
  pinned : int;
  speculation_blocked : int;  (** pinned specifically for trap safety *)
  hoistable : int;  (** best strictly above, at lower loop depth *)
  sinkable : int;  (** best strictly below, profitably *)
}

val compute : ?obs:Obs.t -> Ir.Func.t -> t
(** Runs the underlying analyses (dominators, postdominators, loop forest,
    interval facts, all over one {!Analysis.Ctx.t}) and both schedules. Emits a [schedule.compute] span and
    [schedule.*] counters when [obs] is given. *)

val dom : t -> Analysis.Dom.t
val pdom : t -> Analysis.Postdom.t
val forest : t -> Analysis.Loops.forest
(** [func]'s analyses, through [ctx]. *)

val identity : Ir.Func.t -> int array
(** Every value at its current block — the placement the checker certifies
    today. *)

val movable : t -> Ir.Func.value -> bool
(** A reachable value definition whose {!Speculate} class permits motion
    ([Safe] or [Proven]) — the gate a GCM transform must apply before
    rewriting the value's block to [best]. Pinned values (φs, opaque calls,
    uncleared faulting ops) and unreachable code are not movable. *)

val hoistable : t -> Ir.Func.value -> bool
(** The best block strictly dominates the current block at strictly smaller
    loop depth: a loop-invariant computation liftable out of its loop. *)

val sinkable : t -> Ir.Func.value -> bool
(** The best block is strictly dominated by the current block and the move
    pays: loop depth drops, or the target no longer postdominates the
    source (the value stops being computed on paths that never use it). *)

val stats : t -> stats

val lints : t -> Check.Diagnostic.t list
(** Opportunity lints in the Info tier of the two-severity scheme:
    [lint-loop-invariant] for hoistable values, [lint-sinkable] for
    sinkable ones. Never Warning — a missed motion is not a bug. *)

val pp_fact : t -> Format.formatter -> Ir.Func.value -> unit
(** One line: early/best/late blocks, loop depths, safety class. *)
