(** The "related predicates" logic of §2.7: assuming a dominating edge's
    comparison holds, decide another comparison. Recognised relations:
    pairwise-congruent operands (an operator implication table) and a
    congruent value compared against two constants (interval reasoning —
    e.g. Z > 1 refutes Z < 1). *)

type verdict = True | False | Unknown

val with_fault : (verdict -> verdict) -> (unit -> 'a) -> 'a
(** Test-only fault injection: [with_fault f k] runs [k] with every
    {!decide} verdict the engine takes passed through [f], restoring the
    previous hook afterwards (also on exceptions) — the mutant tests use it
    to simulate a wrong implication table. The hook is domain-local: it
    affects only the installing domain. *)

val fault : unit -> (verdict -> verdict) option
(** The hook {!with_fault} installed on this domain, if any. The engine
    reads it once per predicate-inference walk, not once per fact. *)

val same_operands_table : Ir.Types.cmp -> Ir.Types.cmp -> verdict
(** Given [a OP b], decide [a OP' b]. *)

val decide :
  same:('a -> 'a -> bool) ->
  const:('a -> int option) ->
  fop:Ir.Types.cmp ->
  fa:'a ->
  fb:'a ->
  qop:Ir.Types.cmp ->
  qa:'a ->
  qb:'a ->
  verdict
(** [decide ~same ~const ~fop ~fa ~fb ~qop ~qa ~qb]: assuming the fact
    [fa fop fb] holds, the truth of the query [qa qop qb]. Comparisons are
    passed as scalars (no tuples — this sits on the predicate-inference
    walk). Generic in the atom representation (the engine passes
    hash-consed {!Hexpr} atoms, the tests their own): [same] is atom
    congruence, [const] recognises constant atoms. Sound: [True]/[False] verdicts never contradict any
    satisfying assignment. *)
