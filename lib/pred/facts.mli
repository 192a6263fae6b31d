(** Sparse collection of branch/switch facts on the dominator-tree path to
    each block and edge, computed once, syntactically, over a routine's SSA
    values (terms are value ids). Every collected fact holds whenever the
    block (resp. edge) executes: sole static in-edges are the only entry,
    the idom chain is on every path from entry, and SSA values are
    immutable once defined. *)

type t

val compute : ?ctx:Analysis.Ctx.t -> Ir.Func.t -> t
(** [?ctx] supplies the routine's dominators; a fresh context otherwise.
    @raise Invalid_argument when [ctx] belongs to another function. *)

val term_of : Ir.Func.t -> Ir.Func.value -> Atom.term
(** The atom term naming a value: [Const k] for constant definitions
    (so the closure sees exact bounds), [Term v] otherwise. *)

val mentions : t -> Ir.Func.value -> bool
(** Whether any collected fact may name the value. [false] means no
    fact at any block or edge constrains it. *)

val at_block : t -> int -> Atom.t list
(** Facts holding on entry to the block (and, values being immutable,
    at every point the block dominates). *)

val at_edge : t -> int -> Atom.t list
(** Facts holding whenever the edge is traversed: the edge's own facts
    plus those of its source block. *)

val closure_at_block : t -> int -> Closure.t
(** Convenience: {!Closure.of_facts} over [at_block]. *)

val pp_facts : Format.formatter -> Atom.t list -> unit
