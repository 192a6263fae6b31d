(** Symbolic expressions (§2.2–2.3): the canonical form of what an
    instruction computes, over congruence-class leaders. The TABLE is keyed
    on this type, so congruent instructions must evaluate to equal
    expressions.

    Arithmetic is kept as a canonical sum of products ({!Sum}): ordered
    terms of an integer coefficient times rank-ordered value factors; the
    constant part is the factor-less term. Non-reassociable operations keep
    atomic operands ({!Op}). Comparisons are rank-canonicalized, flipping
    the operator when operands swap. φ-expressions carry their block — or,
    under φ-predication, the block's control predicate, an or-of-ands of
    edge predicates.

    Expressions are hash-consed: every structurally distinct expression is
    interned exactly once per {!arena}, so equality is physical ([==] /
    {!tag} comparison) and hashing is O(1) — the paper's "the cost of a
    hash lookup is independent of program size" cost model. The smart
    constructors enforce two invariants:

    - {b children are consed}: interning a node hashes only its children's
      tags, O(arity), and every later probe of the same structure is O(1);
    - {b predicates are canonical at construction}: {!pand}/{!por} flatten
      nested conjunctions/disjunctions, sort children by tag and drop
      duplicates, so path predicates built through different traversal
      shapes land on the same cell (and hence the same TABLE slot). *)

type term = { coeff : int; factors : int list (** value ids, rank-sorted *) }
type opsym = Ubop of Ir.Types.binop | Uuop of Ir.Types.unop

type t = node Util.Hashcons.consed

and node =
  | Const of int
  | Value of int  (** a congruence-class leader *)
  | Sum of term list  (** canonical sum of products *)
  | Op of opsym * t list  (** non-reassociable op over atomic operands *)
  | Cmp of Ir.Types.cmp * t * t
  | Phi of key * t list
  | Opq of int * t list  (** uninterpreted function of tag and atoms *)
  | Self of int  (** an expression unique to the given value *)
  | Pand of t list  (** conjunction: flattened, tag-sorted, deduplicated *)
  | Por of t list  (** disjunction: flattened, tag-sorted, deduplicated *)

and key = Kblock of int | Kpred of t

type arena
(** One expression arena, scoped to a GVN run (see {!State.t.arena}). *)

val create : ?size:int -> unit -> arena
val stats : arena -> Util.Hashcons.stats

val node : t -> node
val tag : t -> int
(** Unique per structurally distinct expression within one arena. *)

val equal : t -> t -> bool
(** Physical equality — O(1), sound within one arena. *)

val hash : t -> int
(** Precomputed — O(1). *)

val equal_key : key -> key -> bool

(** {1 Smart constructors}

    All take the arena; all return the unique cell for the (canonicalized)
    structure. *)

val const : arena -> int -> t
val value : arena -> int -> t
val self : arena -> int -> t
val sum : arena -> term list -> t
(** Raw [Sum] node — the term list must already be canonical; prefer
    {!of_terms}. *)

val op_ : arena -> opsym -> t list -> t
(** Raw [Op] node, no operand sorting; prefer {!make_op}. *)

val cmp_ : arena -> Ir.Types.cmp -> t -> t -> t
(** Raw [Cmp] node, no canonicalization; prefer {!cmp_atoms}. *)

val phi : arena -> key -> t list -> t
val opq : arena -> int -> t list -> t

val pand : arena -> t list -> t
(** Conjunction: flattens nested [Pand] children, sorts by tag, drops
    duplicates; collapses to the sole child, or to [Const 1] when empty. *)

val por : arena -> t list -> t
(** Disjunction, canonicalized like {!pand}; empty collapses to [Const 0]. *)

(** {1 Sum-of-products algebra}

    Each function takes the rank function ordering values (§2.2: constants
    rank 0, values by definition order in RPO). All term lists are and stay
    canonical: sorted by factors, coefficients nonzero, products unique. *)

val compare_factors : (int -> int) -> int list -> int list -> int

val merge_terms : (int -> int) -> term list -> term list -> term list
(** Addition. *)

val negate_terms : term list -> term list

val mul_terms : (int -> int) -> term list -> term list -> term list
(** Multiplication with full distribution. *)

val size_of_terms : term list -> int
(** Operand count, bounded by the forward-propagation limit (§2.2 fn. 4). *)

val of_terms : arena -> term list -> t
(** Reduce to the simplest form: [Const 0], a constant, a bare value, or a
    [Sum]. *)

val terms_of_atom : t -> term list
(** @raise Invalid_argument on non-atoms. *)

(** {1 Comparisons and operators over atoms} *)

val is_atom : t -> bool
(** [Const] or [Value]. *)

val cmp_atoms : arena -> (int -> int) -> Ir.Types.cmp -> t -> t -> t
(** Canonical comparison: folds constants and identical operands, orders
    operands by increasing rank (flipping the operator on swap, §2.8). *)

val negate_pred : arena -> t -> t
(** The complement of a predicate; closed on comparisons. *)

val is_predicate : t -> bool

val make_op : arena -> (int -> int) -> opsym -> t list -> t
(** An [Op] node, sorting the operands when the operator is commutative. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
