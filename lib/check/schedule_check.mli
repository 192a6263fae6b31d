(** Schedule-legality verifier: certifies a proposed per-value block
    assignment against SSA dominance, φ anchoring, speculation safety and
    loop depth. Independent of [lib/schedule] — it recomputes dominators,
    the loop forest and the interval facts from first principles, over a
    fresh {!Analysis.Ctx.t} of its own (never the placement's), so the
    placement analysis and its checker share no conclusions.

    Check ids, all [Error] severity, pinned by the test suite:
    [sched-placement] (malformed vector / unreachable or nonexistent
    target), [sched-phi] (φ moved), [sched-dominance] (def no longer
    dominates a use position; φ uses live at the carrying predecessor
    edge's source), [sched-speculation] (faulting op moved to a block whose
    refined interval facts do not clear it, or an opaque call moved at
    all), [sched-loop-depth] (moved into a strictly deeper loop).

    The checker judges block-level placement; within-block ordering is the
    transform's concern. *)

type placement = int array
(** [placement.(v)] is the block assigned to value [v]; entries for
    non-value instructions (terminators) are ignored. *)

val identity : Ir.Func.t -> placement
(** Every instruction at its current block. Certified violation-free on
    the whole corpus. *)

val run : ?placement:placement -> Ir.Func.t -> Diagnostic.t list
(** Verify [placement] (default: the identity). Never raises. *)
