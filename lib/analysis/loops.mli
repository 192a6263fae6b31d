(** Natural-loop nesting forest. A natural loop is keyed by a header block
    that dominates the source of at least one RPO back edge into it; loops
    sharing a header are merged, and parent links nest each loop inside the
    smallest other loop containing its header. Retreating edges whose target
    does not dominate their source (irreducible control flow) form no
    natural loop and are reported in [irreducible] instead of being silently
    mis-nested. *)

type loop = {
  header : int;
  parent : int;  (** index into [loops] of the innermost enclosing loop, or -1 *)
  depth : int;  (** 1 = outermost *)
  body : int array;  (** member blocks, ascending; includes the header *)
  back_tails : int array;  (** sources of the back edges into [header] *)
}

type forest = {
  nblocks : int;
  loops : loop array;  (** ordered by header id *)
  loop_of : int array;  (** block -> innermost containing loop index, or -1 *)
  nesting : int array;  (** block -> number of containing loops *)
  irreducible : (int * int) list;
      (** retreating (src, dst) edges that form no natural loop *)
}

val forest : ?dom:Dom.t -> Graph.t -> forest
(** The loop-nesting forest of the reachable part of the graph. [?dom] lets
    a caller that already computed dominators share them. *)

val depth_at : forest -> int -> int
(** Loop depth of a block: number of natural loops containing it. *)

val widen_blocks : forest -> int list
(** Blocks where a fixpoint over this graph must widen: natural-loop headers
    plus the targets of irreducible retreating edges. *)

val max_nesting : forest -> int
(** The deepest loop nesting of any block; 0 without loops. *)
