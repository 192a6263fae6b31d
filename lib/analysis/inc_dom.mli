(** Incrementally maintained dominator tree of the {e reachable} subgraph
    under edge insertion only — the paper's complete algorithm's setting
    [14], where blocks and edges become reachable monotonically during a
    GVN run. Insertion follows Sreedhar–Gao–Lee: after inserting a
    reachable edge (x, y), every vertex whose immediate dominator changes
    gets idom NCA(x, y); candidates are found by a deepest-first DJ-graph
    search from y. *)

type t

val create : n:int -> entry:int -> t
(** Only the entry is reachable initially. *)

val is_reachable : t -> int -> bool

val idom : t -> int -> int
(** -1 for the entry and for unreachable nodes. *)

val depth : t -> int -> int

val dominates : t -> int -> int -> bool
(** Over the current reachable subgraph; reflexive. *)

val insert_edge : t -> src:int -> dst:int -> int list
(** Record [src -> dst] as reachable and repair the tree. Returns the
    affected vertices (those whose immediate dominator changed) so callers
    can re-examine what depended on the old dominance.
    @raise Invalid_argument when [src] is not yet reachable. *)

val recompute_reference : t -> Dom.t
(** From-scratch recomputation over the currently recorded reachable
    subgraph; the test oracle for {!insert_edge}. *)
