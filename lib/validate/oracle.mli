(** The independent equivalence oracle: a from-scratch iterative value-graph
    GVN (Saleena–Paleri / RPO-hashing family; arXiv:1303.1880,
    arXiv:1504.03239) used to certify the sparse engine's rewrites. It
    shares nothing with [lib/core]: its own reachability, its own RPO walk,
    its own hash-based partition, and none of the paper's predicate
    machinery. Simple by design: dense rounds over the whole reachable
    function, with array-backed data. *)

type t

val run : Ir.Func.t -> t
(** Iterate optimistic expression numbering and reachability shrinking to a
    fixpoint. @raise Failure if the iteration fails to converge (bounded by
    instruction count; does not happen on well-formed functions). *)

val congruent : t -> Ir.Func.value -> Ir.Func.value -> bool
(** Both values reachable and provably congruent. *)

val constant : t -> Ir.Func.value -> int option
(** The constant the oracle proves for the value, if any. *)

val block_reachable : t -> int -> bool
val edge_reachable : t -> int -> bool

val rounds : t -> int
(** Numbering rounds until the fixpoint (for reporting). *)

val classes : t -> int
(** Distinct congruence classes among reachable values. *)
