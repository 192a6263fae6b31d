(** Normalized comparison atoms over opaque terms — SSA value ids in
    {!Facts}, congruence-class representatives in the GVN driver's fallback
    queries. Normalization folds trivial comparisons and orders operands
    canonically so equal facts compare equal structurally. *)

type term = Const of int | Term of int

type t = { op : Ir.Types.cmp; a : term; b : term }

type norm = Atom of t | Triv of bool  (** trivially true/false comparisons fold *)

val make : Ir.Types.cmp -> term -> term -> norm
(** Normalize [a op b]: constant–constant and reflexive comparisons
    evaluate away ([Triv]); otherwise operands are put in canonical order
    (constants first) via [swap_cmp]. *)

val never : t
(** A canonically false atom ([0 ≠ 0]); assuming it contradicts. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val eval : (int -> int) -> t -> bool
(** Truth under an assignment of term ids to integers; [lookup] may raise
    [Not_found], which propagates. *)

val pp_term : Format.formatter -> term -> unit
val pp : Format.formatter -> t -> unit
