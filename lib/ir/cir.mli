(** The pre-SSA IR: a CFG whose instructions assign mutable registers. The
    mini-C frontend ({!Lower}) and the workload generator produce [Cir];
    [Ssa.Construct] turns it into SSA.

    Registers [0 .. nparams-1] hold the parameters on entry; every other
    register reads 0 until first assigned. *)

type reg = int

type rinstr =
  | Iconst of reg * int
  | Imov of reg * reg
  | Iunop of reg * Types.unop * reg
  | Ibinop of reg * Types.binop * reg * reg
  | Icmp of reg * Types.cmp * reg * reg
  | Iopaque of reg * int * reg list

type term =
  | Tjump of int
  | Tbranch of reg * int * int  (** condition, true target, false target *)
  | Tswitch of reg * (int * int) array * int
      (** scrutinee, (case constant, target) pairs, default target *)
  | Treturn of reg

type block = { body : rinstr array; term : term }
type t = { name : string; nparams : int; nregs : int; blocks : block array }

val entry : int
val num_blocks : t -> int
val succ_blocks : t -> int array array
val def_of_rinstr : rinstr -> reg
val iter_uses_rinstr : (reg -> unit) -> rinstr -> unit
val iter_uses_term : (reg -> unit) -> term -> unit

val prune_unreachable : t -> t
(** Drop blocks not structurally reachable from the entry, remapping ids. *)

val run : ?fuel:int -> t -> int array -> Interp.result
(** Register-level reference interpreter; SSA construction must preserve
    this semantics exactly. *)

val pp : Format.formatter -> t -> unit
