(* Per-run instrumentation of the GVN engine, and the one record a run
   keeps of itself: pass counts and the average number of blocks visited
   per processed instruction during value inference, predicate inference
   and φ-predication (the paper's §4/§5 efficiency claims), the rewrite
   rules that fired, and the predicate claims a static checker replays. *)

(* One operand of a recorded predicate claim. Queries reaching
   [Infer.decide] compare atoms: constants or congruence-class leader
   values (SSA value ids). *)
type atom = Aconst of int | Avalue of int

(* What decided a claim: the predicate on one dominating edge, or the
   multi-fact implication closure (lib/pred), from the conjunction of all
   dominating-edge facts, when the single-fact walk could not. *)
type decider = Edge of int | Closure

(* A decided predicate query: while computing at [block], the engine asked
   whether [a op b] holds and [by] answered [verdict]. Recorded so a static
   checker ([Absint.Crosscheck]) can replay every claim against
   independently computed interval facts. *)
type claim = {
  block : int;
  by : decider;
  op : Ir.Types.cmp;
  a : atom;
  b : atom;
  verdict : bool;
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
  rules_fired : int array; (* per catalog rule, in Rules.catalog order *)
  mutable const_folds : int;
  mutable claims : claim list; (* the final state's claims *)
  mutable pred_closure_queries : int; (* closure fallbacks attempted *)
  mutable pred_decided_true : int;
  mutable pred_decided_false : int;
  mutable pred_contradictions : int; (* contradictory fact conjunctions seen *)
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
    rules_fired = Array.make (List.length Rules.catalog) 0;
    const_folds = 0;
    claims = [];
    pred_closure_queries = 0;
    pred_decided_true = 0;
    pred_decided_false = 0;
    pred_contradictions = 0;
  }

let count_fire t = function
  | Rules.Engine.Rule i -> t.rules_fired.(i) <- t.rules_fired.(i) + 1
  | Rules.Engine.Const_fold -> t.const_folds <- t.const_folds + 1

let record_claim t ~block ~by ~op ~a ~b ~verdict =
  (match by with
  | Edge _ -> ()
  | Closure ->
      if verdict then t.pred_decided_true <- t.pred_decided_true + 1
      else t.pred_decided_false <- t.pred_decided_false + 1);
  t.claims <- { block; by; op; a; b; verdict } :: t.claims

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
