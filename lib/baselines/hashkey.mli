(** Shared expression keys for the hash-based baselines: purely syntactic
    (no folding or reordering), so their fixed points coincide with the
    partition-based AWZ result modulo the φ(x,…,x) → x reduction. *)

type rep = int

type t =
  | Kconst of int
  | Kparam of int
  | Kopq of int * rep list
  | Kphi of int * rep list
  | Kunop of Ir.Types.unop * rep
  | Kbinop of Ir.Types.binop * rep * rep
  | Kcmp of Ir.Types.cmp * rep * rep

(** {1 Hash-consed keys}

    One arena per numbering run: numbering tables key on consed cells, so a
    key that was already interned this run probes by precomputed tag. *)

type consed = t Util.Hashcons.consed
type arena

val create_arena : ?size:int -> unit -> arena
val intern : arena -> t -> consed

module Consed_table : Hashtbl.S with type key = consed
