(** Alpern–Wegman–Zadeck optimistic partition-based value numbering [1]:
    the value graph is partitioned by operator label (φs labelled by their
    block), then refined until congruent nodes have position-wise congruent
    operands. The partition formulation does not perform the hash-based
    reduction φ(x, …, x) → x, so its result refines (finds no more than)
    the hash-based algorithms'. *)

val run : Ir.Func.t -> int array
(** Class id per value (-1 for non-values); congruent iff equal. *)
