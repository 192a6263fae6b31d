(** Type checker over the integer IR: a Bot < Bool < Int refinement lattice
    (Bool = provably 0/1), inferred as a fixpoint through φs, plus the
    per-opcode agreement checks it enables — parameter indices in range
    (error), consistent opaque-call arity per tag (warning), and
    dead switch cases on boolean scrutinees (warning).

    Assumes {!Cfg_check} and {!Ssa_check} reported no errors. *)

type ty = Bot | Bool | Int

val run : Ir.Func.t -> Diagnostic.t list
