(* Hash-consed symbolic expressions (paper §2.2–2.3). See hexpr.mli for
   the design contract.

   Arithmetic ([+], [-], [*], unary [-]) is kept in canonical
   sum-of-products form ({!Sum}): an ordered list of terms, each an integer
   coefficient times an ordered list of value factors; the constant part is
   the term with no factors. Ordering follows value ranks (constants rank 0,
   values by definition order in RPO), and "values and products that differ
   only in sign are treated as equal when ordering" — the sign lives in the
   coefficient. *)

type term = { coeff : int; factors : int list (* value ids, rank-sorted *) }
type opsym = Ubop of Ir.Types.binop | Uuop of Ir.Types.unop

type t = node Util.Hashcons.consed

and node =
  | Const of int
  | Value of int
  | Sum of term list
  | Op of opsym * t list
  | Cmp of Ir.Types.cmp * t * t
  | Phi of key * t list
  | Opq of int * t list
  | Self of int
  | Pand of t list
  | Por of t list

and key = Kblock of int | Kpred of t

let node (c : t) = c.Util.Hashcons.node
let tag (c : t) = c.Util.Hashcons.tag
let equal (a : t) (b : t) = a == b
let hash (c : t) = c.Util.Hashcons.hkey

let equal_key k1 k2 =
  match (k1, k2) with
  | Kblock a, Kblock b -> a = b
  | Kpred p, Kpred q -> p == q
  | (Kblock _ | Kpred _), _ -> false

(* Small integer codes for the operator enums, so shallow hashing and
   equality are pure OCaml int arithmetic — no [Hashtbl.hash] or
   polymorphic-compare C calls on the intern fast path. *)
let binop_code : Ir.Types.binop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let unop_code : Ir.Types.unop -> int = function Neg -> 0 | Lnot -> 1 | Bnot -> 2

let cmp_code : Ir.Types.cmp -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let sym_code = function Ubop b -> binop_code b | Uuop u -> 16 + unop_code u

(* Shallow equality/hash over one node: children by physical identity /
   tag, scalars structurally. This is what makes interning O(arity) and
   every later probe O(1). *)
module N = struct
  type nonrec t = node

  let rec eq_list xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> x == y && eq_list xs ys
    | _ -> false

  let equal a b =
    match (a, b) with
    | Const x, Const y -> x = y
    | Value x, Value y -> x = y
    | Self x, Self y -> x = y
    | Sum ts, Sum us -> ts = us (* ints only: structural compare is safe *)
    | Op (o, xs), Op (p, ys) -> sym_code o = sym_code p && eq_list xs ys
    | Cmp (o, x1, y1), Cmp (p, x2, y2) ->
        cmp_code o = cmp_code p && x1 == x2 && y1 == y2
    | Phi (k1, xs), Phi (k2, ys) -> equal_key k1 k2 && eq_list xs ys
    | Opq (t1, xs), Opq (t2, ys) -> t1 = t2 && eq_list xs ys
    | Pand xs, Pand ys | Por xs, Por ys -> eq_list xs ys
    | ( ( Const _ | Value _ | Self _ | Sum _ | Op _ | Cmp _ | Phi _ | Opq _
        | Pand _ | Por _ ),
        _ ) ->
        false

  let comb h x = (h * 1000003) lxor x
  let hash_children salt xs = List.fold_left (fun h x -> comb h (tag x)) salt xs

  let hash = function
    | Const n -> comb 1 n
    | Value v -> comb 2 v
    | Self v -> comb 3 v
    | Sum ts ->
        List.fold_left
          (fun h t ->
            comb
              (List.fold_left comb (comb h t.coeff) t.factors)
              17)
          4 ts
    | Op (o, xs) -> hash_children (comb 5 (sym_code o)) xs
    | Cmp (o, x, y) -> comb (comb (comb 6 (cmp_code o)) (tag x)) (tag y)
    | Phi (k, xs) ->
        let hk = match k with Kblock b -> comb 7 b | Kpred p -> comb 8 (tag p) in
        hash_children hk xs
    | Opq (t, xs) -> hash_children (comb 9 t) xs
    | Pand xs -> hash_children 10 xs
    | Por xs -> hash_children 11 xs
end

module HC = Util.Hashcons.Make (N)

(* [small]/[vals] are read-through caches in front of the arena table for
   the two atom shapes the driver builds on every operand visit: small
   constants (eager) and per-value leader atoms (filled on first use).
   Both return the same cells interning would, just without the probe. *)
type arena = {
  hc : HC.arena;
  small : t array; (* Const (-16) .. Const 16 *)
  mutable vals : t option array; (* Value cells, indexed by value id *)
}

let create ?(size = 1024) () =
  let hc = HC.create ~size () in
  {
    hc;
    small = Array.init 33 (fun i -> HC.hashcons hc (Const (i - 16)));
    vals = Array.make 64 None;
  }

let stats a = HC.stats a.hc
let intern a n = HC.hashcons a.hc n

(* ---------------- smart constructors ---------------- *)

let const a n =
  if n >= -16 && n <= 16 then Array.unsafe_get a.small (n + 16)
  else intern a (Const n)

let value a v =
  if v < 0 then intern a (Value v)
  else begin
    if v >= Array.length a.vals then begin
      let nv = Array.make (max (2 * Array.length a.vals) (v + 1)) None in
      Array.blit a.vals 0 nv 0 (Array.length a.vals);
      a.vals <- nv
    end;
    match a.vals.(v) with
    | Some c -> c
    | None ->
        let c = intern a (Value v) in
        a.vals.(v) <- Some c;
        c
  end
let self a v = intern a (Self v)
let sum a ts = intern a (Sum ts)
let op_ a sym args = intern a (Op (sym, args))
let cmp_ a op x y = intern a (Cmp (op, x, y))
let phi a k args = intern a (Phi (k, args))
let opq a tg args = intern a (Opq (tg, args))

(* Canonical predicate children: flatten one connective, sort by tag,
   dedup. Tag order is arbitrary but fixed within an arena, which is all
   canonicity needs: any construction order of the same operand set yields
   the same cell. *)
let canon_children flatten xs =
  let rec flat acc = function
    | [] -> acc
    | x :: rest -> (
        match flatten (node x) with
        | Some ys -> flat (flat acc ys) rest
        | None -> flat (x :: acc) rest)
  in
  List.sort_uniq (fun a b -> Int.compare (tag a) (tag b)) (flat [] xs)

let pand a xs =
  match xs with
  (* Fast path for the dominant binary case with nothing to flatten. *)
  | [ x; y ] when (match (node x, node y) with Pand _, _ | _, Pand _ -> false | _ -> true)
    ->
      if x == y then x
      else
        let x, y = if tag x < tag y then (x, y) else (y, x) in
        intern a (Pand [ x; y ])
  | xs -> (
      match canon_children (function Pand ys -> Some ys | _ -> None) xs with
      | [] -> const a 1 (* empty conjunction: true *)
      | [ x ] -> x
      | xs -> intern a (Pand xs))

let por a xs =
  match xs with
  | [ x; y ] when (match (node x, node y) with Por _, _ | _, Por _ -> false | _ -> true) ->
      if x == y then x
      else
        let x, y = if tag x < tag y then (x, y) else (y, x) in
        intern a (Por [ x; y ])
  | xs -> (
      match canon_children (function Por ys -> Some ys | _ -> None) xs with
      | [] -> const a 0 (* empty disjunction: false *)
      | [ x ] -> x
      | xs -> intern a (Por xs))

(* ---------------- sum-of-products algebra ---------------- *)

(* [rank] orders values; see paper §2.2. *)
let compare_factors rank fs gs =
  let key v = (rank v, v) in
  let rec go fs gs =
    match (fs, gs) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | f :: fs, g :: gs ->
        let c = compare (key f) (key g) in
        if c <> 0 then c else go fs gs
  in
  go fs gs

(* Merge two sorted term lists, combining coefficients of equal products and
   dropping zero terms. *)
let merge_terms rank ts us =
  let rec go ts us =
    match (ts, us) with
    | [], rest | rest, [] -> rest
    | t :: ts', u :: us' ->
        let c = compare_factors rank t.factors u.factors in
        if c < 0 then t :: go ts' us
        else if c > 0 then u :: go ts us'
        else
          let coeff = t.coeff + u.coeff in
          if coeff = 0 then go ts' us' else { coeff; factors = t.factors } :: go ts' us'
  in
  go ts us

let negate_terms ts = List.map (fun t -> { t with coeff = -t.coeff }) ts

(* Number of atomic operands a term list represents; the forward-propagation
   limit (§2.2 footnote 4) bounds this. *)
let size_of_terms ts =
  List.fold_left (fun n t -> n + 1 + List.length t.factors) 0 ts

let sort_factors rank fs = List.sort (fun a b -> compare (rank a, a) (rank b, b)) fs

(* Product of two term lists (full distribution). *)
let mul_terms rank ts us =
  List.fold_left
    (fun acc t ->
      let row =
        List.map
          (fun u -> { coeff = t.coeff * u.coeff; factors = sort_factors rank (t.factors @ u.factors) })
          us
      in
      (* Row terms may collide after sorting; merge them in one by one. *)
      List.fold_left (fun acc tm -> merge_terms rank acc [ tm ]) acc row)
    [] ts

(* A sum reduced back to the simplest expression form. *)
let of_terms a ts =
  match ts with
  | [] -> const a 0
  | [ { coeff; factors = [] } ] -> const a coeff
  | [ { coeff = 1; factors = [ v ] } ] -> value a v
  | ts -> sum a ts

let terms_of_atom x =
  match node x with
  | Const 0 -> []
  | Const n -> [ { coeff = n; factors = [] } ]
  | Value v -> [ { coeff = 1; factors = [ v ] } ]
  | _ -> invalid_arg "Hexpr.terms_of_atom"

(* ---------------- comparisons and operators over atoms ---------------- *)

let is_atom x = match node x with Const _ | Value _ -> true | _ -> false

let atom_rank rank x =
  match node x with
  | Const _ -> (0, min_int)
  | Value v -> (rank v, v)
  | _ -> invalid_arg "Hexpr.atom_rank"

(* Canonical comparison between atoms: folds constants, resolves identical
   operands, and orders operands by increasing rank (flipping the operator
   when they swap, §2.8). *)
let cmp_atoms a rank op x y =
  match (node x, node y) with
  | Const p, Const q -> const a (Ir.Types.eval_cmp op p q)
  | _ ->
      if x == y then
        const a (match op with Eq | Le | Ge -> 1 | Ne | Lt | Gt -> 0)
      else if atom_rank rank x <= atom_rank rank y then cmp_ a op x y
      else cmp_ a (Ir.Types.swap_cmp op) y x

let is_predicate x = match node x with Cmp _ -> true | _ -> false

let op_commutative = function
  | Ubop op -> Ir.Types.binop_commutative op
  | Uuop _ -> false

let make_op a rank sym args =
  let args =
    if op_commutative sym then
      List.sort (fun u v -> compare (atom_rank rank u) (atom_rank rank v)) args
    else args
  in
  op_ a sym args

let negate_pred a x =
  match node x with
  | Cmp (op, u, v) -> cmp_ a (Ir.Types.negate_cmp op) u v
  | Const n -> const a (if n = 0 then 1 else 0)
  | _ -> op_ a (Uuop Ir.Types.Lnot) [ x ]

(* ---------------- printing (tests and debugging) ---------------- *)

let rec pp ppf x =
  match node x with
  | Const n -> Fmt.int ppf n
  | Value v -> Fmt.pf ppf "v%d" v
  | Self v -> Fmt.pf ppf "self(v%d)" v
  | Sum ts ->
      let pp_term ppf t =
        match t.factors with
        | [] -> Fmt.int ppf t.coeff
        | fs ->
            if t.coeff <> 1 then Fmt.pf ppf "%d*" t.coeff;
            Fmt.(list ~sep:(any "*") (fun ppf v -> pf ppf "v%d" v)) ppf fs
      in
      Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " + ") pp_term) ts
  | Op (Ubop op, [ u; v ]) -> Fmt.pf ppf "(%a %s %a)" pp u (Ir.Types.string_of_binop op) pp v
  | Op (Uuop op, [ u ]) -> Fmt.pf ppf "%s%a" (Ir.Types.string_of_unop op) pp u
  | Op (_, args) -> Fmt.pf ppf "op(%a)" Fmt.(list ~sep:(any ", ") pp) args
  | Cmp (op, u, v) -> Fmt.pf ppf "(%a %s %a)" pp u (Ir.Types.string_of_cmp op) pp v
  | Phi (Kblock b, args) -> Fmt.pf ppf "phi[b%d](%a)" b Fmt.(list ~sep:(any ", ") pp) args
  | Phi (Kpred p, args) -> Fmt.pf ppf "phi[%a](%a)" pp p Fmt.(list ~sep:(any ", ") pp) args
  | Opq (tg, args) -> Fmt.pf ppf "opaque#%d(%a)" tg Fmt.(list ~sep:(any ", ") pp) args
  | Pand xs -> Fmt.pf ppf "(and %a)" Fmt.(list ~sep:sp pp) xs
  | Por xs -> Fmt.pf ppf "(or %a)" Fmt.(list ~sep:sp pp) xs

let to_string x = Fmt.str "%a" pp x
