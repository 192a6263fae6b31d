(** Speculation-safety classification of SSA values: may an instruction be
    evaluated at a block other than the one that currently guards it?

    - [Safe]: trap-free by operator class (constants, parameters, unops,
      comparisons, and every binop except [Div]/[Rem]).
    - [Proven]: a potentially faulting op proven non-trapping from the
      {e unrefined} interval facts of its operands — the divisor's interval
      excludes 0 and the [min_int]/[-1] overflow pair is excluded. Unrefined
      facts are sound at any block dominated by the operand definitions, so
      a [Proven] op may float anywhere its operands are available.
    - [Pinned]: everything else. [May_trap] records the controlling
      predicate — the nearest strict dominator whose terminator branches and
      which the op's block does not postdominate; hoisting above it could
      introduce a fault the original program never executed. [Call] pins
      opaque calls; [Anchored] pins φs (and terminators), which are
      placeholders for control flow rather than movable computations. *)

type reason =
  | May_trap of { predicate : int option }
      (** faulting op not cleared by the facts; [predicate] is the
          controlling branch block when one exists *)
  | Call  (** opaque call: never speculated *)
  | Anchored  (** φ or terminator: fixed by control flow *)

type t = Safe | Proven of string | Pinned of reason

val classify :
  Ir.Func.t ->
  dom:Analysis.Dom.t ->
  pdom:Analysis.Postdom.t ->
  ranges:Absint.Ranges.result ->
  Ir.Func.value ->
  t

val is_pinned : t -> bool

val cleared_by_facts : Pred.Facts.t -> Ir.Func.t -> block:int -> Ir.Func.value -> bool
(** For a potentially faulting instruction: do the dominating branch facts
    on entry to [block], combined by the multi-fact implication closure,
    prove it cannot fault? The facts embed [block]'s guards, so — values
    being immutable — the clearance is sound at [block] and at every block
    it dominates. Strictly stronger than {!cleared_at} on guard
    conjunctions intervals cannot express (e.g. [d != 0 && d != -1]).
    Non-faulting instructions are trivially cleared. *)

val pp : Format.formatter -> t -> unit
