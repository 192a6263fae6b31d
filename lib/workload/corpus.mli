(** Hand-written mini-C programs: the paper's figures rendered as code,
    plus focused probes for each analysis. See the .ml for the full sources
    and the note on Figure 1's two OCR-garbled [!=] comparisons. *)

val routine_r_src : string
(** Figure 1: the routine only the full unified algorithm proves always
    returns 1. *)

val figure6_src : string
(** The two-step value-inference chain K → J → I. *)

val figure13_src : string
(** The Briggs–Torczon–Cooper pre-pass comparison. *)

val figure14a_src : string
val figure14b_src : string
(** The Rüthing–Knoop–Steffen φ-of-op cases (found only under
    [Config.full_extended]). *)

val loop_invariant_src : string
val cyclic_congruence_src : string
val phi_predication_src : string
val reassociation_src : string

val func_of_src : ?pruning:Ssa.Construct.pruning -> string -> Ir.Func.t

val all_named : (string * string) list
(** Every corpus program with a short name. *)
