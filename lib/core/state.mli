(** The mutable state of a GVN run: the paper's REACHABLE, TOUCHED, CHANGED,
    CLASS, LEADER, EXPRESSION, TABLE, RANK, PREDICATE, PARTIAL PREDICATE,
    CANONICAL and BACKWARD structures, implemented as §3 recommends:
    congruence classes as doubly linked lists threaded through per-value
    arrays, bit-array set membership, and touch counting so a pass stops as
    soon as nothing remains touched. *)

type leader = Lundef | Lconst of int | Lvalue of int

type cls = {
  cid : int;
  mutable head : int;  (** first member, -1 when empty *)
  mutable size : int;
  mutable leader : leader;
  mutable expr : Hexpr.t option;  (** the class's defining expression *)
  mutable in_table : bool;  (** whether [expr] is currently a TABLE key *)
  mutable eq_operands : int;
      (** members that are operands of an =/≠ test or switch scrutinees
          (§3: inference walks are skipped when zero) *)
  mutable cmp_operands : int;  (** members that are operands of any comparison *)
}

type t = {
  f : Ir.Func.t;
  config : Config.t;
  is_eq_operand : bool array;
  is_cmp_operand : bool array;
  rank : int array;  (** RANK: constants 0, values by RPO definition order *)
  class_of : int array;  (** CLASS *)
  next_member : int array;
  prev_member : int array;
  changed : bool array;  (** CHANGED *)
  classes : cls Util.Vec.t;
  arena : Hexpr.arena;
      (** the run's expression arena: one consed cell per distinct structure.
          TABLE is distributed over the cells: a consed expression's
          [Util.Hashcons.slot] holds its class id ([-1] = unbound), so a
          TABLE probe is a field read — no hashing at all. *)
  initial : int;  (** the INITIAL class id (0) *)
  reach_block : bool array;
  reach_edge : bool array;
  touched_instr : bool array;
  touched_block : bool array;
  mutable touched_count : int;
  mutable cursor : int;
      (** RPO index of the block the sweep is at; the last index outside a
          sweep. Maintained by {!visit_block}, {!end_sweep} and
          {!touch_downstream_rpo}; the driver reads neither this nor
          [pending], only {!has_work}. *)
  mutable pending : int;
      (** the touch watermark: every block at RPO index [>= pending] counts
          as touched, block and instructions, though its flags are set only
          when the sweep reaches it. Always [> cursor]; the number of RPO
          blocks when nothing is pending. *)
  pred_edge : Hexpr.t option array;  (** PREDICATE of edges (canonical) *)
  pred_block : Hexpr.t option array;  (** PREDICATE of blocks (φ-predication) *)
  partial_pred : Hexpr.t option array;
  partial_ops : Hexpr.t list array;  (** OR operands accumulating at a join *)
  partial_count : int array;
  pp_init : bool array;
      (** per-block bit: OR accumulator live in the current Figure 8
          computation (cleared via the traversal's initialized list) *)
  canonical : int array array;  (** CANONICAL incoming-edge order per block *)
  phi_scratch : Hexpr.t option array;
      (** per-edge φ-argument scratch for {!Driver}'s [eval_phi]; all [None]
          between evaluations *)
  rpo : Analysis.Rpo.t;
  backward : bool array;  (** BACKWARD: RPO back edges *)
  dom : Analysis.Dom.t;
  pdom : Analysis.Postdom.t;
  inc_dom : Analysis.Inc_dom.t;  (** complete variant's reachable dominator tree *)
  def_use : int array array;
  switch_default : (int * int array) option array;
      (** per edge: [Some (scrutinee, cases)] for switch default edges;
          populated only under [Config.pred_closure] *)
  stats : Run_stats.t;
  mutable rules_subject : Hexpr.t Rules.Engine.subject option;
      (** lazily built matcher view of this run's expressions (see
          {!Rewrite.subject_of}); cached here because it closes over the
          state *)
}

val create : Config.t -> Ir.Func.t -> t
(** Fresh state: all values in INITIAL with leader ⊥, nothing reachable or
    touched. *)

val cls : t -> int -> cls

val leader_atom : t -> Ir.Func.value -> Hexpr.t option
(** The atomic expression symbolic evaluation substitutes for a value: its
    class leader. [None] while the value is still in INITIAL (⊥). *)

(** {1 TOUCHED} *)

val touch_instr : t -> int -> unit
val touch_block : t -> int -> unit
val untouch_instr : t -> int -> unit
val untouch_block : t -> int -> unit
val touch_users : t -> Ir.Func.value -> unit
val touch_block_instrs : t -> int -> unit
val touch_block_phis : t -> int -> unit

val touch_downstream_rpo : t -> int -> unit
(** The practical variant's conservative propagation (Figure 5): touch every
    block and instruction at or after the given block in RPO. Blocks ahead
    of the sweep cursor are touched lazily: the call only lowers the
    watermark, in O(1), and {!visit_block} sets their flags on arrival. A
    block at or behind the cursor (a back edge's target, or any block
    outside a sweep) has the span up to the cursor touched now. The flags a
    block has when the sweep reaches it, and the touch counters at the end
    of a sweep, are those of touching every block at once. *)

val visit_block : t -> int -> int
(** [visit_block t n]: the sweep moves its cursor to RPO index [n] and
    returns that block, first setting its flags if it lies at or beyond
    the watermark. A sweep visits [0, 1, …] in order. *)

val end_sweep : t -> unit
(** End the sweep: touch any block still pending and park the cursor at
    the last RPO index. *)

val has_work : t -> bool
(** Whether anything counts as touched: a flag set, or a block pending. *)

val touch_dominated_and_postdominating : t -> int -> unit
(** The complete variant's propagation: instructions of blocks dominated by
    the given block (reachable dominator tree), plus blocks postdominating
    it. *)

val propagate_change_in_edge : t -> int -> unit
(** Figure 5's [Propagate change in edge], per the configured variant:
    {!touch_downstream_rpo} of the edge's target (practical, O(1) for a
    forward edge) or {!touch_dominated_and_postdominating} (complete). *)

(** {1 Congruence classes} *)

val new_class : t -> leader -> Hexpr.t option -> cls

val unlink : t -> Ir.Func.value -> unit
(** Remove from its current class (does not update CLASS). *)

val link : t -> Ir.Func.value -> cls -> unit
(** Add to a class and point CLASS at it. *)

val iter_members : t -> cls -> (Ir.Func.value -> unit) -> unit

(** {1 Reachability} *)

val edge_reachable : t -> int -> bool
val block_reachable : t -> int -> bool
val reachable_in_edges : t -> int -> int list
val sole_reachable_in_edge : t -> int -> int option
val has_incoming_back_edge : t -> int -> bool
