(** SSA verifier: single definition, instr/block table agreement, φ
    placement and arity, operand validity, def-dominates-use for straight
    uses, per-edge availability for φ arguments, and no reachable use of a
    definition in an unreachable block.

    Assumes {!Cfg_check} reported no errors. The dominators come from a
    fresh {!Analysis.Ctx.t} built here; the verifier never takes analyses
    from the code it judges. *)

val run : Ir.Func.t -> Diagnostic.t list
