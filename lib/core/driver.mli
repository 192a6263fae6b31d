(** The GVN engine (Figures 3–7): the sparse touched-worklist driver,
    symbolic evaluation (constant folding, algebraic simplification, global
    reassociation), congruence finding over the TABLE, unreachable-code
    analysis of edges, and predicate & value inference along dominating
    edges. φ-predication lives in {!Phipred}. *)

exception Diverged of string
(** Raised when a run exceeds the pass safety cap (indicates an engine bug;
    never expected on well-formed input). *)

val run : ?obs:Obs.t -> Config.t -> Ir.Func.t -> State.t
(** Run global value numbering to its fixed point and return the final
    state. The input function is not modified; use [Transform.Apply] to
    rewrite with the results. With [~obs], the run is wrapped in a
    [pgvn.run] span with one [pgvn.sweep] span per worklist sweep, its
    latency is observed into the [pgvn.run_ns] histogram, and the engine's
    counters (passes, worklist touches, TABLE probes/hits, inference
    visits, arena occupancy) are published under the [pgvn.*] metric names
    documented in DESIGN.md §4d. *)

(** {1 Result queries} *)

val value_unreachable : State.t -> Ir.Func.value -> bool
(** Still in INITIAL: no execution computes this value. *)

val value_constant : State.t -> Ir.Func.value -> int option
(** The constant the value is congruent to, if any. *)

val congruent : State.t -> Ir.Func.value -> Ir.Func.value -> bool
(** Same (non-INITIAL) congruence class: guaranteed equal on every
    execution that computes both. *)

type decided_branch = {
  db_block : int;
  db_cond : Ir.Func.value;  (** the branch/switch condition or scrutinee *)
  db_const : int option;  (** the condition class's constant leader, if any *)
  db_pruned : int list;  (** out-edge ids left unreachable *)
}
(** A conditional terminator of a reachable block with at least one
    unreachable out-edge: a branch the run (partially) decided. *)

val decided_branches : State.t -> decided_branch list
(** Every decided branch of the final state, reconstructed post-hoc (sound
    because reachability only grows during the run). Input to
    [Absint.Crosscheck]. *)

type summary = {
  values : int;
  unreachable_values : int;
  constant_values : int;
      (** unreachable values count as constants too (the §5 correction) *)
  congruence_classes : int;
  reachable_blocks : int;
  reachable_edges : int;
  passes : int;
}

val summarize : State.t -> summary
(** The per-routine strength metrics of the paper's figures. *)

(** {1 Engine steps, exposed for instrumentation and the test suite} *)

val eval_operand : State.t -> int -> Ir.Func.value -> Hexpr.t option
(** The leader atom of an operand with value inference applied at the given
    block (Figure 7); [None] while the operand is ⊥. *)

val branch_predicates : State.t -> int -> Hexpr.t option -> Hexpr.t option * Hexpr.t option
(** The predicates of the true and false edges of a branch at the given
    block on the given condition atom, re-evaluated over current leaders
    and inferred in one walk; [None] where unknown or constant. *)
