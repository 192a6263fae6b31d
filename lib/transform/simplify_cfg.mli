(** CFG cleanup: fuse a block into its unconditional successor when it is
    that successor's only predecessor (collapsing the successor's
    single-argument φs), and drop structurally unreachable blocks. *)

val run : Ir.Func.t -> Ir.Func.t
val fixpoint : Ir.Func.t -> Ir.Func.t
(** {!run} until the block count stops falling, for at most ten rounds. *)
