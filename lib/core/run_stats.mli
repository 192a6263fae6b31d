(** Per-run instrumentation backing the paper's §4/§5 efficiency claims:
    pass counts, touches, and the blocks visited per processed instruction
    in value inference, predicate inference and φ-predication. *)

type atom = Aconst of int | Avalue of int
(** Operand of a recorded predicate-inference claim: a constant, or a
    congruence-class leader's SSA value id. *)

type inference = {
  inf_block : int;  (** block being computed when the query was asked *)
  inf_edge : int;  (** dominating edge whose predicate decided it *)
  inf_op : Ir.Types.cmp;
  inf_a : atom;
  inf_b : atom;
  inf_verdict : bool;  (** the decided truth of [inf_a inf_op inf_b] *)
}
(** A decided predicate-inference query, recorded so [Absint.Crosscheck]
    can statically replay the engine's claims against interval facts. *)

type pred_inference = {
  pinf_block : int;  (** block being computed when the query was asked *)
  pinf_op : Ir.Types.cmp;
  pinf_a : atom;
  pinf_b : atom;
  pinf_verdict : bool;
}
(** A query decided by the multi-fact implication closure (lib/pred) after
    the single-fact walk gave up — no single deciding edge exists, the
    verdict follows from the conjunction of dominating-edge facts.
    Replayed by [Absint.Crosscheck] like {!inference}. *)

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
  mutable inferences : inference list;
      (** the claims the final evaluation of each instruction makes, one
          record per evaluation that made it *)
  mutable pred_closure_queries : int;  (** closure fallbacks attempted *)
  mutable pred_decided_true : int;
  mutable pred_decided_false : int;
  mutable pred_contradictions : int;  (** contradictory conjunctions seen *)
  mutable pred_inferences : pred_inference list;  (** kept like [inferences] *)
}

val create : unit -> t

val record_inference :
  t ->
  block:int ->
  edge:int ->
  op:Ir.Types.cmp ->
  a:atom ->
  b:atom ->
  verdict:bool ->
  unit

val record_pred_inference :
  t -> block:int -> op:Ir.Types.cmp -> a:atom -> b:atom -> verdict:bool -> unit
(** Record a closure-decided query and bump the decided counters. *)

val pp : Format.formatter -> t -> unit
