(** Mutable construction of SSA functions.

    Typical use: {!create}, {!add_block} for every block, append
    instructions, set terminators (which creates the CFG edges and returns
    their ids), supply φ arguments per incoming edge with {!set_phi_arg},
    then {!finish}.

    {!finish} lays instructions out block by block and renumbers them; map
    construction-time ids through {!final_value} when they are needed
    against the finished function. *)

type t

val create : name:string -> nparams:int -> t

val add_block : t -> int
(** A new block; the first call creates the entry block (id 0). *)

val const : t -> int -> int -> Func.value
(** [const t blk n] appends [Const n] to block [blk]. *)

val param : t -> int -> int -> Func.value
val unop : t -> int -> Types.unop -> Func.value -> Func.value
val binop : t -> int -> Types.binop -> Func.value -> Func.value -> Func.value
val cmp : t -> int -> Types.cmp -> Func.value -> Func.value -> Func.value

val instr : t -> int -> Func.instr -> Func.value
(** [instr t blk ins] appends a non-φ value instruction whose operands
    are ids this builder handed out.
    @raise Invalid_argument on a φ or a terminator. *)

val opaque : ?tag:int -> t -> int -> Func.value list -> Func.value
(** An uninterpreted call; without [?tag] a fresh tag is allocated (the
    value is then congruent to nothing else). *)

val phi : t -> int -> Func.value
(** A φ whose arguments are supplied later, per incoming edge, via
    {!set_phi_arg}. *)

val set_phi_arg : t -> phi:Func.value -> edge:int -> Func.value -> unit
(** @raise Invalid_argument when [phi] is not a φ. *)

val jump : t -> int -> dst:int -> int
(** Terminate with an unconditional jump; returns the created edge id. *)

val branch : t -> int -> Func.value -> ift:int -> iff:int -> int * int
(** Terminate with a conditional branch; returns (true edge, false edge). *)

val switch : t -> int -> Func.value -> cases:(int * int) list -> default:int -> int list * int
(** [switch t blk v ~cases ~default]: one edge per [(constant, target)]
    case in order, then the default edge; returns (case edge ids, default
    edge id). *)

val ret : t -> int -> Func.value -> unit

val finish : t -> Func.t
(** Freeze into a validated function.
    @raise Invalid_argument on unterminated blocks, missing φ arguments, or
    references to unknown values. *)

val final_value : t -> Func.value -> Func.value
(** Maps an id handed out during construction to the id in the finished
    function. Only valid after {!finish}. *)
