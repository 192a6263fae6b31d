(** Generic hash-consing arenas (Filliâtre-style, strong tables).

    [hashcons] interns a node: structurally equal nodes map to one shared
    cell, so downstream equality is physical ([==]) or [tag] comparison and
    downstream hashing is O(1) via the precomputed [hkey] (or the [tag]
    itself). Arenas are strong and scoped: create one per run/pass and drop
    it when done — nothing is retained globally.

    The intended idiom for recursive node types is maximal sharing: a
    node's children are already-consed cells, so the shallow [hash]/[equal]
    the functor receives cost O(arity), and every deeper probe is O(1). *)

type 'a consed = private { node : 'a; tag : int; hkey : int; mutable slot : int }
(** A consed cell: [tag] is unique per structurally distinct node within
    its arena (dense, allocation-ordered); [hkey] is the node's hash,
    computed once at interning time. [slot] is one client-owned int of
    scratch, [-1] at interning time: because the cell for an expression is
    unique, an [expression -> int] table over consed cells can be this
    field — a probe is a load, no hashing at all. One owner per arena. *)

val sentinel : 'a -> 'a consed
(** A cell outside every arena, with tag [-1]: no [hashcons] returns it, so
    a client can use it as a marker that no interned cell equals. *)

val slot : 'a consed -> int
(** The client scratch slot ([-1] until set). *)

val set_slot : 'a consed -> int -> unit
(** Write the client scratch slot. The cell is shared by every holder of
    the structurally equal expression, so only one table abstraction per
    arena may use it. *)

type stats = {
  live : int;  (** distinct nodes interned and still in the arena *)
  buckets : int;  (** arena hash-table buckets *)
  max_chain : int;  (** longest arena bucket chain *)
  interned : int;  (** total distinct nodes ever interned *)
  hits : int;  (** probes answered by an existing cell *)
}

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (H : HashedType) : sig
  type arena

  val create : ?size:int -> unit -> arena
  val hashcons : arena -> H.t -> H.t consed
  (** The unique cell for this node: physical equality of results is
      structural equality of arguments (within one arena). *)

  val find_or_add : arena -> int -> ('k -> H.t -> bool) -> ('k -> H.t) -> 'k -> H.t consed
  (** [find_or_add a h equal build key]: hash-first interning of a node the
      caller holds in some other form [key] (a scratch buffer, say). [h]
      must be [H.hash] of the node, and [equal key n] must hold exactly when
      [n] is structurally equal to it. The probe compares stored hashes,
      then [equal]; only on a miss does [build key] make the node, which is
      interned as [hashcons] would. A hit allocates nothing. *)

  val stats : arena -> stats

  module Tbl : Hashtbl.S with type key = H.t consed
  (** Tables keyed by consed cells: O(1) tag hashing, [==] equality. The
      table holds its key cells strongly, so entries never dangle. *)
end
