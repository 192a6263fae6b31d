(** Lowering mini-C to the register IR. Short-circuit operators become
    control flow; [break]/[continue] target the innermost loop; switch
    cases do not fall through; statements after a terminator are pruned as
    unreachable; routines without a final return get [return 0]. *)

val lower_routine : Ast.routine -> Cir.t
(** @raise Failure on [break]/[continue] outside a loop. *)
