(** The SSA intermediate representation.

    A function is immutable once built (see {!Builder}): analyses attach
    side tables, and transformations construct fresh functions, so
    instruction ids, block ids and edge ids are stable identifiers.

    Conventions:
    - an instruction id doubles as the id of the value it defines;
    - block {!entry} (0) is the entry block and has no predecessors;
    - each block holds its φs first and exactly one terminator last;
    - [Phi args]: [args.(i)] is carried by the block's [preds.(i)] edge;
    - a [Branch] block's [succs.(0)] is its true edge, [succs.(1)] false;
    - a [Switch (v, cases)] block has one edge per case plus a final
      default edge. *)

type value = int
(** The id of a value-defining instruction. *)

type instr =
  | Const of int
  | Param of int  (** the k-th routine parameter *)
  | Unop of Types.unop * value
  | Binop of Types.binop * value * value
  | Cmp of Types.cmp * value * value
  | Opaque of int * value array
      (** an uninterpreted pure function of its tag and arguments: models
          calls; congruent when tags match and arguments are congruent *)
  | Phi of value array
  | Jump
  | Branch of value
  | Switch of value * int array
      (** [Switch (v, cases)]: edge i is taken when [v = cases.(i)]; the
          last edge is the default. Case constants are distinct. *)
  | Return of value

type edge = {
  src : int;
  dst : int;
  src_ix : int;  (** position in [src]'s successor list *)
  dst_ix : int;  (** position in [dst]'s predecessor list *)
}

type block = {
  instrs : int array;  (** instruction ids: φs first, terminator last *)
  preds : int array;  (** incoming edge ids *)
  succs : int array;  (** outgoing edge ids *)
}

type t = {
  name : string;
  nparams : int;
  blocks : block array;
  instrs : instr array;
  instr_block : int array;  (** enclosing block of each instruction *)
  edges : edge array;
}

val entry : int
(** The entry block id (always 0). *)

val num_blocks : t -> int
val num_instrs : t -> int
val num_edges : t -> int
val block : t -> int -> block
val instr : t -> int -> instr
val edge : t -> int -> edge
val block_of_instr : t -> int -> int

val defines_value : instr -> bool
(** Everything except terminators. *)

val is_phi : instr -> bool
val is_terminator : instr -> bool

val terminator_of_block : t -> int -> int
(** The id of the block's terminator instruction. *)

val operands : instr -> value array
(** Operands in order; φ operands follow the block's pred-edge order. *)

val iter_operands : (value -> unit) -> instr -> unit

type def_use = private {
  offsets : int array;  (** length [num_instrs + 1] *)
  users : int array;
}
(** The SSA def-use chains, flat: the users of value [v] are
    [users.(offsets.(v))] up to [users.(offsets.(v + 1) - 1)], in
    instruction order, an instruction once per operand slot naming [v]. *)

val def_use : ?keep:(int -> bool) -> t -> def_use
(** The def-use chains of [f], counting only the users [keep] accepts (all
    by default). *)

val iter_users : def_use -> value -> (int -> unit) -> unit
(** [iter_users du v g] calls [g] on each user of [v], in order. *)

val succ_blocks : t -> int array array
(** Per-block successor block ids (the CFG view used by {!Analysis.Graph}). *)

val phis_of_block : t -> int -> int array
(** The φ instructions at the head of a block. *)

val validate : t -> t
(** Structural well-formedness: edge table consistency, φ arity, terminator
    placement, operand ranges. Returns its argument.
    @raise Failure with a diagnostic on malformed functions. *)
