(* Generic hash-consing arenas. Strong (non-weak) tables: an arena is meant
   to be scoped to one run or pass and dropped wholesale, which keeps the
   implementation portable across OCaml 4.14/5.x and makes [stats] exact.

   The bucket table is hand-rolled rather than a [Hashtbl.Make] instance so
   that interning hashes a node exactly once — the computed key is stored
   in the cell and compared before [H.equal] on every chain step, which is
   what makes the intern fast path cheap enough to sit on the expression
   constructors of the GVN inner loop. *)

type 'a consed = { node : 'a; tag : int; hkey : int; mutable slot : int }

let sentinel node = { node; tag = -1; hkey = 0; slot = -1 }
let slot c = c.slot
let set_slot c v = c.slot <- v

type stats = {
  live : int;
  buckets : int;
  max_chain : int;
  interned : int;
  hits : int;
}

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (H : HashedType) = struct
  type arena = {
    mutable buckets : H.t consed list array; (* length always a power of two *)
    mutable live : int;
    mutable next_tag : int;
    mutable hits : int;
  }

  let create ?(size = 256) () =
    let rec pow2 k = if k >= size || k >= 1 lsl 20 then k else pow2 (2 * k) in
    { buckets = Array.make (pow2 16) []; live = 0; next_tag = 0; hits = 0 }

  let resize a =
    let old = a.buckets in
    let n = 2 * Array.length old in
    let nb = Array.make n [] in
    let mask = n - 1 in
    Array.iter
      (fun chain ->
        List.iter
          (fun c ->
            let i = c.hkey land mask in
            nb.(i) <- c :: nb.(i))
          chain)
      old;
    a.buckets <- nb

  (* A chain walk with no closure: the key is [h], [equal] and [key]. *)
  let rec find h equal key = function
    | c :: rest -> if c.hkey = h && equal key c.node then c else find h equal key rest
    | [] -> raise_notrace Not_found

  let find_or_add a hash equal build key =
    let h = hash land max_int in
    let i = h land (Array.length a.buckets - 1) in
    match find h equal key a.buckets.(i) with
    | c ->
        a.hits <- a.hits + 1;
        c
    | exception Not_found ->
        let c = { node = build key; tag = a.next_tag; hkey = h; slot = -1 } in
        a.next_tag <- a.next_tag + 1;
        a.buckets.(i) <- c :: a.buckets.(i);
        a.live <- a.live + 1;
        if a.live > 2 * Array.length a.buckets then resize a;
        c

  let hashcons a node = find_or_add a (H.hash node) H.equal Fun.id node

  let stats a =
    let max_chain =
      Array.fold_left (fun m chain -> max m (List.length chain)) 0 a.buckets
    in
    {
      live = a.live;
      buckets = Array.length a.buckets;
      max_chain;
      interned = a.next_tag;
      hits = a.hits;
    }

  module Tbl = Hashtbl.Make (struct
    type t = H.t consed

    let equal = ( == )
    let hash c = c.tag
  end)
end
