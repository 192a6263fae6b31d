(** Dead code elimination. Every instruction in this IR is pure (opaque
    calls model pure unknown functions), so an instruction is live only if
    a terminator transitively depends on it. *)

val run : Ir.Func.t -> Ir.Func.t
