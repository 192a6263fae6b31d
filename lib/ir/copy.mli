(** The function copier every rewriting pass shares, built on {!Builder}.
    The pass decides which blocks survive, which instructions are kept,
    folded, replaced or aliased, and where and in what order each value
    lands; the copier copies. Every call names blocks, values and edges by
    their ids in the {e old} function.

    {b Layout.} {!Builder.finish} lays a block out as its φs, its other
    instructions in append order, then its terminator, and numbers edges
    (hence each block's predecessor and φ-argument order) in the order
    terminators are built, which {!finish} does in old block-id order. So
    the output is fixed by the order of the pass's calls, including
    substitutions that materialize a value: {!instr} resolves a binary
    instruction's second operand before its first, and {!finish} resolves
    terminator operands, then φ arguments in the reverse of the φs'
    creation order.

    {b Blocks with no path from the entry} (a block with no predecessor,
    say) lie outside the RPO the passes walk, so a copy that kept one would
    end it with a terminator whose values were never copied. [Apply] keeps
    only the blocks GVN reached, which never include one; [Simplify_cfg],
    [Dce], [Lvn] and [Briggs_prepass] keep only the blocks the entry
    reaches. All five drop such a block. [Gcm] keeps it, its values copied
    in place after the RPO's blocks. *)

type t

val create :
  ?keep:bool array ->
  ?live:bool array ->
  ?subst:(t -> int -> Func.value -> Func.value) ->
  Func.t ->
  t
(** [create f] starts a copy of [f] with a new block for each old block
    [b] with [keep.(b)] (default: all), in old-id order. [live] marks the
    old edges that survive; without it terminators are copied as they are
    (see {!finish}). [subst c use v] is the new value a use of old value [v] in old
    block [use] reads, once {!alias}es are followed: [use] is the block
    the using instruction is copied into, or for a φ argument the source
    of its edge. The default is {!value}. *)

val value : t -> Func.value -> Func.value
(** The new value bound to old value [v].
    @raise Invalid_argument when there is none yet. *)

val copied : t -> Func.value -> bool
(** Whether old value [v] has a new value yet. *)

val bind : t -> Func.value -> Func.value -> unit
(** [bind c v v'] makes [v'] the new value of old value [v]. *)

val alias : t -> Func.value -> Func.value -> unit
(** [alias c v a]: a use of old value [v] resolves as a use of [a]. *)

val const : t -> into:int -> int -> Func.value
(** [const c ~into n] appends [Const n] to the copy of old block [into]. *)

val instr : t -> into:int -> Func.value -> unit
(** [instr c ~into v] appends a copy of old value instruction [v] to the
    copy of old block [into] and binds [v] to it. A φ's arguments are
    wired at {!finish}; other operands are resolved now.
    @raise Invalid_argument on a terminator. *)

val finish : ?term_from:(int -> int) -> t -> Func.t
(** End each kept block with the terminator of old block [term_from b]
    (default [b]), in old block-id order, mapping the old edges it keeps
    to the new ones; then wire each φ's arguments over its incoming edges
    that were built, and {!Builder.finish}. Given [live], dead edges are
    dropped: a branch with one live edge becomes a jump; a switch keeps
    its live cases, promotes the last one to default when the default is
    dead, and becomes a jump when no case is left.
    @raise Invalid_argument on a branch or switch with no live edge. *)
