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

val create : ?size:int -> ?values:int -> unit -> arena
(** [size] is the initial table size; [values] the number of value ids
    the run names, for which the arena keeps one [Value] cell each. *)

val stats : arena -> Util.Hashcons.stats

val intern : arena -> node -> t
(** The cell for this node exactly as given, with no canonicalization: the
    reference the constructors below are tested against. *)

val node : t -> node
val tag : t -> int
(** Unique per structurally distinct expression within one arena. *)

val equal : t -> t -> bool
(** Physical equality — O(1), sound within one arena. *)

val hash : t -> int
(** Precomputed — O(1). *)

val equal_key : key -> key -> bool

val bot : t
(** ⊥, the result of evaluating over an operand still in INITIAL: a cell
    outside every arena, so no constructor returns it and no TABLE slot
    is ever set on it. Compare with [==]. *)

val is_bot : t -> bool

val ubop : Ir.Types.binop -> opsym
val uuop : Ir.Types.unop -> opsym
(** Shared [Ubop]/[Uuop] values, so naming an operator allocates nothing. *)

(** {1 Smart constructors}

    All take the arena; all return the unique cell for the (canonicalized)
    structure. They intern hash-first ({!Util.Hashcons.Make.find_or_add}):
    the node is described in the arena's scratch and hashed there, and
    built only when no cell holds it yet, so a constructor whose probe
    hits allocates nothing beyond a list argument the caller built. *)

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

(** {2 Children from the arena's child buffer}

    [clear_args], then [push_arg] each child in order, then one of the
    constructors below, with no other constructor call in between (they
    share the buffer). *)

val clear_args : arena -> unit
val push_arg : arena -> t -> unit
val op_args : arena -> opsym -> t
val phi_block_args : arena -> int -> t
(** [Phi (Kblock b, children)]. *)

val phi_pred_args : arena -> t -> t
(** [Phi (Kpred p, children)]. *)

val opq_args : arena -> int -> t

val pand : arena -> t list -> t
(** Conjunction: flattens nested [Pand] children, sorts by tag, drops
    duplicates; collapses to the sole child, or to [Const 1] when empty. *)

val por : arena -> t list -> t
(** Disjunction, canonicalized like {!pand}; empty collapses to [Const 0]. *)

val pand2 : arena -> t -> t -> t
(** [pand2 a x y] is [pand a [x; y]], without the list. *)

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

val of_terms : arena -> term list -> t
(** Reduce to the simplest form: [Const 0], a constant, a bare value, or a
    [Sum]. *)

val terms_of_atom : t -> term list
(** @raise Invalid_argument on non-atoms. *)

(** {2 The arena's term buffer}

    The same algebra over the arena's scratch, allocation-free: a term
    list there is a run of slots, named by its first slot and ending where
    the buffer ends when it is made. Each function appends its result
    after its inputs and returns where it starts, so a binary operation
    takes its operands as consecutive runs [[a0, b0)] and [[b0, end)]. The
    list forms above are these functions on a buffer of their own. *)

val terms_reset : arena -> unit
(** Empty the buffer. *)

val terms_atom : arena -> t -> int
(** Append an atom's terms.
    @raise Invalid_argument on non-atoms. *)

val terms_list : arena -> term list -> int
val terms_add : arena -> (int -> int) -> int -> int -> neg:bool -> int
(** [terms_add a rank a0 b0 ~neg]: the sum of the last two runs, the second
    negated when [neg]. *)

val terms_mul : arena -> (int -> int) -> int -> int -> int
(** [terms_mul a rank a0 b0]: the product of the last two runs. *)

val terms_negate : arena -> int -> unit
(** Negate the last run in place. *)

val terms_size : arena -> int -> int
(** The operand count of the last run, which the forward-propagation limit
    bounds (§2.2 fn. 4). *)

val terms_intern : arena -> int -> t
(** {!of_terms} of the last run. *)

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

val make_op2 : arena -> (int -> int) -> opsym -> t -> t -> t
(** [make_op2 a rank sym x y] is [make_op a rank sym [x; y]], without the
    list. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
