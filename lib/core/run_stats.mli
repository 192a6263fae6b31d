(** Per-run instrumentation, and the one record a GVN run keeps of itself:
    pass counts, touches, the blocks visited per processed instruction in
    value inference, predicate inference and φ-predication (the paper's
    §4/§5 efficiency claims), the rewrite rules that fired, and the
    predicate claims [Absint.Crosscheck] replays. *)

type atom = Aconst of int | Avalue of int
(** Operand of a recorded predicate claim: a constant, or a
    congruence-class leader's SSA value id. *)

type decider =
  | Edge of int  (** the predicate of this dominating edge decided it *)
  | Closure
      (** the multi-fact implication closure (lib/pred) decided it, from
          the conjunction of dominating-edge facts, after the single-fact
          walk gave up *)

type claim = {
  block : int;  (** block being computed when the query was asked *)
  by : decider;
  op : Ir.Types.cmp;
  a : atom;
  b : atom;
  verdict : bool;  (** the decided truth of [a op b] *)
}
(** A decided predicate query, recorded so [Absint.Crosscheck] can
    statically replay the engine's claims against interval facts. *)

type t = {
  mutable passes : int;
  mutable instrs_processed : int;
  mutable instr_touches : int;
  mutable block_touches : int;
  mutable touch_slots : int;
      (** RPO slots visited by touch propagation: back-edge spans plus
          blocks whose flags are set on the sweep's arrival (not printed by
          {!pp}) *)
  mutable value_inference_visits : int;
  mutable predicate_inference_visits : int;
  mutable phi_predication_visits : int;
  mutable class_moves : int;
  mutable table_probes : int;  (** TABLE lookups during congruence finding *)
  mutable table_hits : int;  (** probes answered by an existing class *)
  rules_fired : int array;  (** fires per catalog rule, in {!Rules.catalog} order *)
  mutable const_folds : int;  (** the rule matcher's constant folds *)
  mutable claims : claim list;
      (** the claims the final evaluation of each instruction makes, one
          record per evaluation that made it *)
  mutable pred_closure_queries : int;  (** closure fallbacks attempted *)
  mutable pred_decided_true : int;
  mutable pred_decided_false : int;
  mutable pred_contradictions : int;  (** contradictory conjunctions seen *)
}

val create : unit -> t

val count_fire : t -> Rules.Engine.fire -> unit
(** The GVN engine's {!Rules.Engine.subject} [fired] hook. *)

val record_claim :
  t -> block:int -> by:decider -> op:Ir.Types.cmp -> a:atom -> b:atom -> verdict:bool -> unit
(** Record a decided query; a closure-decided one also bumps the decided
    counters. *)

val pp : Format.formatter -> t -> unit
