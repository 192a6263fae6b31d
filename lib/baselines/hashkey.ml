(* Shared expression keys for the hash-based baseline value numberers
   (Simpson RPO / SCC, dominator-scoped pessimistic). Purely syntactic —
   no folding, no reordering — so the fixed points coincide with the
   partition-based AWZ result modulo the φ(x,…,x) → x reduction.

   Keys are interned in a per-run hash-consing arena: numbering tables are
   keyed by the consed cells, so re-probing a key that was already built
   this run hashes a precomputed tag instead of re-walking the key. *)

type rep = int (* representative value id; constants are the Const instr *)

type t =
  | Kconst of int
  | Kparam of int
  | Kopq of int * rep list
  | Kphi of int * rep list (* block id, live argument reps *)
  | Kunop of Ir.Types.unop * rep
  | Kbinop of Ir.Types.binop * rep * rep
  | Kcmp of Ir.Types.cmp * rep * rep

module HC = Util.Hashcons.Make (struct
  type nonrec t = t

  let equal (a : t) (b : t) = a = b
  let hash (k : t) = Hashtbl.hash k
end)

type consed = t Util.Hashcons.consed
type arena = HC.arena

let create_arena ?(size = 256) () = HC.create ~size ()
let intern = HC.hashcons

module Consed_table = HC.Tbl
