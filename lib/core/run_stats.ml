(* Per-run instrumentation of the GVN engine, backing the paper's §4/§5
   efficiency claims: pass counts and the average number of blocks visited
   per processed instruction during value inference, predicate inference and
   φ-predication. *)

(* One operand of a recorded predicate-inference claim. Queries reaching
   [Infer.decide] compare atoms: constants or congruence-class leader
   values (SSA value ids). *)
type atom = Aconst of int | Avalue of int

(* A decided predicate-inference query: while computing at block
   [inf_block], the engine asked whether [inf_a inf_op inf_b] holds given
   the predicate on dominating edge [inf_edge], and [Infer.decide]
   answered [inf_verdict]. Recorded so a static checker
   ([Absint.Crosscheck]) can replay every claim against independently
   computed interval facts. *)
type inference = {
  inf_block : int;
  inf_edge : int;
  inf_op : Ir.Types.cmp;
  inf_a : atom;
  inf_b : atom;
  inf_verdict : bool;
}

(* A query the single-fact walk could not decide but the multi-fact
   implication closure (lib/pred) did, from the conjunction of all
   dominating-edge facts — so no single [pinf_edge] exists. Recorded for
   the same reason as [inference]: [Absint.Crosscheck] replays every
   claim against independently computed interval facts. *)
type pred_inference = {
  pinf_block : int;
  pinf_op : Ir.Types.cmp;
  pinf_a : atom;
  pinf_b : atom;
  pinf_verdict : bool;
}

type t = {
  mutable passes : int;
  mutable instrs_processed : int;
  mutable instr_touches : int;
  mutable block_touches : int;
  mutable touch_slots : int; (* RPO slots visited by touch propagation *)
  mutable value_inference_visits : int; (* dominator-tree steps *)
  mutable predicate_inference_visits : int;
  mutable phi_predication_visits : int; (* blocks traversed in Figure 8 *)
  mutable class_moves : int;
  mutable table_probes : int; (* TABLE lookups during congruence finding *)
  mutable table_hits : int; (* probes answered by an existing class *)
  mutable inferences : inference list; (* the final state's claims *)
  mutable pred_closure_queries : int; (* closure fallbacks attempted *)
  mutable pred_decided_true : int;
  mutable pred_decided_false : int;
  mutable pred_contradictions : int; (* contradictory fact conjunctions seen *)
  mutable pred_inferences : pred_inference list; (* the final state's claims *)
}

let create () =
  {
    passes = 0;
    instrs_processed = 0;
    instr_touches = 0;
    block_touches = 0;
    touch_slots = 0;
    value_inference_visits = 0;
    predicate_inference_visits = 0;
    phi_predication_visits = 0;
    class_moves = 0;
    table_probes = 0;
    table_hits = 0;
    inferences = [];
    pred_closure_queries = 0;
    pred_decided_true = 0;
    pred_decided_false = 0;
    pred_contradictions = 0;
    pred_inferences = [];
  }

let record_inference t ~block ~edge ~op ~a ~b ~verdict =
  t.inferences <-
    { inf_block = block; inf_edge = edge; inf_op = op; inf_a = a; inf_b = b;
      inf_verdict = verdict }
    :: t.inferences

let record_pred_inference t ~block ~op ~a ~b ~verdict =
  (if verdict then t.pred_decided_true <- t.pred_decided_true + 1
   else t.pred_decided_false <- t.pred_decided_false + 1);
  t.pred_inferences <-
    { pinf_block = block; pinf_op = op; pinf_a = a; pinf_b = b; pinf_verdict = verdict }
    :: t.pred_inferences

let per_instr count t =
  if t.instrs_processed = 0 then 0.0 else float_of_int count /. float_of_int t.instrs_processed

let value_inference_per_instr t = per_instr t.value_inference_visits t
let predicate_inference_per_instr t = per_instr t.predicate_inference_visits t
let phi_predication_per_instr t = per_instr t.phi_predication_visits t

let pp ppf t =
  Fmt.pf ppf
    "passes=%d instrs=%d touches=%d vi-visits/instr=%.2f pi-visits/instr=%.2f pp-visits/instr=%.2f"
    t.passes t.instrs_processed t.instr_touches (value_inference_per_instr t)
    (predicate_inference_per_instr t) (phi_predication_per_instr t)
