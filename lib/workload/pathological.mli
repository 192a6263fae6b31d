(** Adversarial inputs for the complexity experiments. *)

val ladder : int -> Ir.Ast.routine
(** The paper's Figure 9: n nested equality guards i1 = i2, i2 = i3, …;
    discovering that the innermost j = i_n + 1 is congruent to k = i1 + 1
    costs a full dominator-chain walk per rewrite — O(n²) total. *)

val ladder_func : int -> Ir.Func.t

val guard_nest : int -> Ir.Ast.routine
(** n nested [if (a > k) {] guards around [r = r + 1]: a routine of 3n + 1
    blocks in which each guard's edges become reachable in turn, the probe
    shape for touch propagation's per-edge cost. *)

val guard_nest_func : int -> Ir.Func.t
