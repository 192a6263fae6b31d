(** Wegman–Zadeck sparse conditional constant propagation [16], implemented
    independently of the GVN engine (the classic two-worklist formulation
    over ⊤ / constant / ⊥). Cross-validates the engine's
    [Config.emulate_sccp_exact] preset. *)

type lattice = Top | Const of int | Bottom

type result = {
  value : lattice array;
  edge_executable : bool array;
  block_executable : bool array;
}

val run : Ir.Func.t -> result
