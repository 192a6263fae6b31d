(** Adversarial inputs for the complexity experiments. *)

val ladder : int -> Ir.Ast.routine
(** The paper's Figure 9: n nested equality guards i1 = i2, i2 = i3, …;
    discovering that the innermost j = i_n + 1 is congruent to k = i1 + 1
    costs a full dominator-chain walk per rewrite — O(n²) total. *)

val ladder_func : int -> Ir.Func.t

val straightline : int -> Ir.Ast.routine
(** A long straight-line block of pairwise-redundant additions: scaling
    measurements over it should be linear. *)
