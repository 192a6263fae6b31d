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

(** {1 Test seam: numbering keys}

    The keys a round interns, with the equality and hash of the key table.
    Exposed for the unit suite only: the table compares stored hashes
    before it calls [equal], so two keys that differ in one operand rarely
    reach [equal] from any input routine, and a fault there would go
    unseen. *)

type key =
  | Kconst of int
  | Kparam of int
  | Kself of int  (** a value pinned into its own class this round *)
  | Kunop of Ir.Types.unop * int
  | Kbinop of Ir.Types.binop * int * int
  | Kcmp of Ir.Types.cmp * int * int
  | Kcall of int * int array  (** opaque tag, argument numbers *)
  | Kphi of int * int array
      (** block, then (pred index, number) of each live input, flattened *)

module Key : sig
  val equal : key -> key -> bool
  (** Structural equality ([a = b]), without polymorphic compare. *)

  val hash : key -> int
  (** Consistent with {!equal}. *)
end
