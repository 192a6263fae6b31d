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

  let rec eq_ints (xs : int list) ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> x = y && eq_ints xs ys
    | _ -> false

  let rec eq_terms ts us =
    match (ts, us) with
    | [], [] -> true
    | t :: ts, u :: us -> t.coeff = u.coeff && eq_ints t.factors u.factors && eq_terms ts us
    | _ -> false

  let equal a b =
    match (a, b) with
    | Const x, Const y -> x = y
    | Value x, Value y -> x = y
    | Self x, Self y -> x = y
    | Sum ts, Sum us -> eq_terms ts us
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

let comb = N.comb

(* Operator values by code, so hot paths name an operator without
   allocating a [Ubop]/[Uuop] box. *)
let binops = Ir.Types.[| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]
let ubops = Array.map (fun b -> Ubop b) binops
let uuops = Ir.Types.[| Uuop Neg; Uuop Lnot; Uuop Bnot |]
let cmps = Ir.Types.[| Eq; Ne; Lt; Le; Gt; Ge |]
let ubop b = Array.unsafe_get ubops (binop_code b)
let uuop u = Array.unsafe_get uuops (unop_code u)
let opsym_of_code c = if c < 16 then ubops.(c) else uuops.(c - 16)

(* A sum-of-products scratch: term slots as parallel int arrays, their
   factors in one int pool. A term list is a run of consecutive slots;
   the algebra below appends each result after its inputs, so a list is
   named by its first slot and ends where the next begins (or at [n]). *)
type buf = {
  mutable coeff : int array;
  mutable fofs : int array; (* first factor of the slot, in [fac] *)
  mutable flen : int array; (* factor count of the slot *)
  mutable n : int; (* slots in use *)
  mutable fac : int array;
  mutable nf : int; (* factors in use *)
  mutable lo : int; (* the run [lo, hi) an interning probe reads *)
  mutable hi : int;
}

let new_buf () =
  {
    coeff = Array.make 16 0;
    fofs = Array.make 16 0;
    flen = Array.make 16 0;
    n = 0;
    fac = Array.make 32 0;
    nf = 0;
    lo = 0;
    hi = 0;
  }

let grow arr need =
  if need <= Array.length arr then arr
  else begin
    let a = Array.make (max need (2 * Array.length arr)) 0 in
    Array.blit arr 0 a 0 (Array.length arr);
    a
  end

let push_term b coeff fofs flen =
  let k = b.n in
  if k >= Array.length b.coeff then begin
    b.coeff <- grow b.coeff (k + 1);
    b.fofs <- grow b.fofs (k + 1);
    b.flen <- grow b.flen (k + 1)
  end;
  b.coeff.(k) <- coeff;
  b.fofs.(k) <- fofs;
  b.flen.(k) <- flen;
  b.n <- k + 1

let push_factor b v =
  if b.nf >= Array.length b.fac then b.fac <- grow b.fac (b.nf + 1);
  b.fac.(b.nf) <- v;
  b.nf <- b.nf + 1

(* [rank] orders values; see paper §2.2. Values compare by (rank, id). *)
let compare_values rank v w =
  let c = Int.compare (rank v) (rank w) in
  if c <> 0 then c else Int.compare v w

(* Lexicographic order of the factor runs of two slots. *)
let compare_slots b rank s t =
  let fs = b.fofs.(s) and ns = b.flen.(s) and ft = b.fofs.(t) and nt = b.flen.(t) in
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < ns && !i < nt do
    c := compare_values rank b.fac.(fs + !i) b.fac.(ft + !i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare ns nt

(* Append the sum of runs [a0, b0) and [b0, b1), the second negated when
   [neg]: equal products combine, and a zero sum drops out. *)
let add_runs b rank a0 b0 b1 ~neg =
  let r = b.n in
  let sign = if neg then -1 else 1 in
  let i = ref a0 and j = ref b0 in
  while !i < b0 || !j < b1 do
    if !j >= b1 then begin
      push_term b b.coeff.(!i) b.fofs.(!i) b.flen.(!i);
      incr i
    end
    else if !i >= b0 then begin
      push_term b (sign * b.coeff.(!j)) b.fofs.(!j) b.flen.(!j);
      incr j
    end
    else
      let c = compare_slots b rank !i !j in
      if c < 0 then begin
        push_term b b.coeff.(!i) b.fofs.(!i) b.flen.(!i);
        incr i
      end
      else if c > 0 then begin
        push_term b (sign * b.coeff.(!j)) b.fofs.(!j) b.flen.(!j);
        incr j
      end
      else begin
        let coeff = b.coeff.(!i) + (sign * b.coeff.(!j)) in
        if coeff <> 0 then push_term b coeff b.fofs.(!i) b.flen.(!i);
        incr i;
        incr j
      end
  done;
  r

let negate_run b lo =
  for k = lo to b.n - 1 do
    b.coeff.(k) <- -b.coeff.(k)
  done

(* Append the product of runs [a0, b0) and [b0, b1), fully distributed:
   each product's factors are the concatenation of its two terms' factors,
   stably sorted, and each product joins the accumulated sum (the last run)
   in row order, combining with an equal product. *)
let mul_runs b rank a0 b0 b1 =
  let r = b.n in
  for s = a0 to b0 - 1 do
    for t = b0 to b1 - 1 do
      (* The product as a detached slot at [b.n], outside the sum. *)
      let f0 = b.nf in
      for k = 0 to b.flen.(s) - 1 do
        push_factor b b.fac.(b.fofs.(s) + k)
      done;
      for k = 0 to b.flen.(t) - 1 do
        push_factor b b.fac.(b.fofs.(t) + k)
      done;
      for k = f0 + 1 to b.nf - 1 do
        let v = b.fac.(k) in
        let m = ref k in
        while !m > f0 && compare_values rank b.fac.(!m - 1) v > 0 do
          b.fac.(!m) <- b.fac.(!m - 1);
          decr m
        done;
        b.fac.(!m) <- v
      done;
      let coeff = b.coeff.(s) * b.coeff.(t) in
      push_term b coeff f0 (b.nf - f0);
      let p = b.n - 1 in
      (* Its place in the sum [r, p): the first term not below it. *)
      let k = ref r in
      while !k < p && compare_slots b rank !k p < 0 do
        incr k
      done;
      let k = !k in
      if k < p && compare_slots b rank k p = 0 then begin
        let c = b.coeff.(k) + coeff in
        b.n <- p;
        if c <> 0 then b.coeff.(k) <- c
        else begin
          for m = k to p - 2 do
            b.coeff.(m) <- b.coeff.(m + 1);
            b.fofs.(m) <- b.fofs.(m + 1);
            b.flen.(m) <- b.flen.(m + 1)
          done;
          b.n <- p - 1
        end
      end
      else if k < p then begin
        let fofs = b.fofs.(p) and flen = b.flen.(p) in
        for m = p downto k + 1 do
          b.coeff.(m) <- b.coeff.(m - 1);
          b.fofs.(m) <- b.fofs.(m - 1);
          b.flen.(m) <- b.flen.(m - 1)
        done;
        b.coeff.(k) <- coeff;
        b.fofs.(k) <- fofs;
        b.flen.(k) <- flen
      end
    done
  done;
  r

let rec push_factors b = function
  | [] -> ()
  | v :: vs ->
      push_factor b v;
      push_factors b vs

let rec push_terms b = function
  | [] -> ()
  | (t : term) :: ts ->
      let f0 = b.nf in
      push_factors b t.factors;
      push_term b t.coeff f0 (b.nf - f0);
      push_terms b ts

let push_list b ts =
  let r = b.n in
  push_terms b ts;
  r

let list_of_run b lo hi =
  let rec factors k i acc = if i < 0 then acc else factors k (i - 1) (b.fac.(b.fofs.(k) + i) :: acc) in
  let rec go k acc =
    if k < lo then acc
    else go (k - 1) ({ coeff = b.coeff.(k); factors = factors k (b.flen.(k) - 1) [] } :: acc)
  in
  go (hi - 1) []

(* Number of atomic operands a run represents; the forward-propagation
   limit (§2.2 footnote 4) bounds this. *)
let run_size b lo =
  let n = ref 0 in
  for k = lo to b.n - 1 do
    n := !n + 1 + b.flen.(k)
  done;
  !n

(* [small]/[vals] are read-through caches in front of the arena table for
   the two atom shapes the driver builds on every operand visit: small
   constants (eager) and per-value leader atoms (filled on first use).
   Both return the same cells interning would, just without the probe.
   The rest is scratch for hash-first interning: a constructor writes the
   node it wants into [k_int]/[k_x]/[k_y], the child buffer [args] or the
   term buffer [terms], and {!HC.find_or_add} compares cells against that,
   so a probe that hits builds nothing. *)
type arena = {
  hc : HC.arena;
  small : t array; (* Const (-16) .. Const 16 *)
  mutable vals : t array; (* Value cells by value id, [bot] until made *)
  mutable k_int : int;
  mutable k_x : t;
  mutable k_y : t;
  mutable args : t array;
  mutable nargs : int;
  terms : buf;
}

(* ⊥: outside every arena, equal to no interned cell. *)
let bot : t = Util.Hashcons.sentinel (Self (-1))
let is_bot x = x == bot

let create ?(size = 1024) ?(values = 64) () =
  let hc = HC.create ~size () in
  let small = Array.init 33 (fun i -> HC.hashcons hc (Const (i - 16))) in
  {
    hc;
    small;
    vals = Array.make (max values 1) bot;
    k_int = 0;
    k_x = bot;
    k_y = bot;
    args = Array.make 8 bot;
    nargs = 0;
    terms = new_buf ();
  }

let stats a = HC.stats a.hc
let intern a n = HC.hashcons a.hc n

(* ---------------- hash-first probes ---------------- *)

let eq_const a = function Const n -> n = a.k_int | _ -> false
let eq_value a = function Value n -> n = a.k_int | _ -> false
let eq_self a = function Self n -> n = a.k_int | _ -> false

let eq_cmp a = function
  | Cmp (o, x, y) -> cmp_code o = a.k_int && x == a.k_x && y == a.k_y
  | _ -> false

let rec eq_args args n i = function
  | [] -> i = n
  | x :: xs -> i < n && x == Array.unsafe_get args i && eq_args args n (i + 1) xs

let eq_op a = function
  | Op (o, xs) -> sym_code o = a.k_int && eq_args a.args a.nargs 0 xs
  | _ -> false

let eq_phi_block a = function
  | Phi (Kblock b, xs) -> b = a.k_int && eq_args a.args a.nargs 0 xs
  | _ -> false

let eq_phi_pred a = function
  | Phi (Kpred p, xs) -> p == a.k_x && eq_args a.args a.nargs 0 xs
  | _ -> false

let eq_opq a = function Opq (g, xs) -> g = a.k_int && eq_args a.args a.nargs 0 xs | _ -> false
let eq_pand a = function Pand xs -> eq_args a.args a.nargs 0 xs | _ -> false
let eq_por a = function Por xs -> eq_args a.args a.nargs 0 xs | _ -> false

let rec eq_factors (b : buf) k i = function
  | [] -> i = b.flen.(k)
  | v :: rest -> i < b.flen.(k) && v = b.fac.(b.fofs.(k) + i) && eq_factors b k (i + 1) rest

let rec eq_terms (b : buf) k = function
  | [] -> k = b.hi
  | (t : term) :: ts ->
      k < b.hi && t.coeff = b.coeff.(k) && eq_factors b k 0 t.factors && eq_terms b (k + 1) ts

let eq_sum a = function Sum ts -> eq_terms a.terms a.terms.lo ts | _ -> false

let args_list a =
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.args.(i) :: acc) in
  go (a.nargs - 1) []

let hash_args a salt =
  let h = ref salt in
  for i = 0 to a.nargs - 1 do
    h := comb !h (tag a.args.(i))
  done;
  !h

let probe_int a h eq build n =
  a.k_int <- n;
  HC.find_or_add a.hc h eq build a

let clear_args a = a.nargs <- 0

let push_arg a x =
  let n = a.nargs in
  if n >= Array.length a.args then begin
    let bigger = Array.make (2 * n) bot in
    Array.blit a.args 0 bigger 0 n;
    a.args <- bigger
  end;
  a.args.(n) <- x;
  a.nargs <- n + 1

let rec push_arg_list a = function
  | [] -> ()
  | x :: xs ->
      push_arg a x;
      push_arg_list a xs

let push_args a xs =
  clear_args a;
  push_arg_list a xs

(* ---------------- smart constructors ---------------- *)

let const a n =
  if n >= -16 && n <= 16 then Array.unsafe_get a.small (n + 16)
  else probe_int a (comb 1 n) eq_const (fun a -> Const a.k_int) n

let value_cell a v = probe_int a (comb 2 v) eq_value (fun a -> Value a.k_int) v

let value a v =
  if v < 0 then value_cell a v
  else begin
    if v >= Array.length a.vals then begin
      let nv = Array.make (max (2 * Array.length a.vals) (v + 1)) bot in
      Array.blit a.vals 0 nv 0 (Array.length a.vals);
      a.vals <- nv
    end;
    let c = a.vals.(v) in
    if c != bot then c
    else begin
      let c = value_cell a v in
      a.vals.(v) <- c;
      c
    end
  end

let self a v = probe_int a (comb 3 v) eq_self (fun a -> Self a.k_int) v

let cmp_ a op x y =
  a.k_x <- x;
  a.k_y <- y;
  let c = cmp_code op in
  probe_int a
    (comb (comb (comb 6 c) (tag x)) (tag y))
    eq_cmp
    (fun a -> Cmp (cmps.(a.k_int), a.k_x, a.k_y))
    c

(* The constructors below read their children from the arena's child
   buffer ({!push_arg}). *)
let op_args a sym =
  let c = sym_code sym in
  probe_int a (hash_args a (comb 5 c)) eq_op (fun a -> Op (opsym_of_code a.k_int, args_list a)) c

let phi_block_args a b =
  probe_int a (hash_args a (comb 7 b)) eq_phi_block (fun a -> Phi (Kblock a.k_int, args_list a)) b

let phi_pred_args a p =
  a.k_x <- p;
  HC.find_or_add a.hc
    (hash_args a (comb 8 (tag p)))
    eq_phi_pred
    (fun a -> Phi (Kpred a.k_x, args_list a))
    a

let opq_args a g = probe_int a (hash_args a (comb 9 g)) eq_opq (fun a -> Opq (a.k_int, args_list a)) g

let op_ a sym args =
  push_args a args;
  op_args a sym

let phi a k args =
  push_args a args;
  match k with Kblock b -> phi_block_args a b | Kpred p -> phi_pred_args a p

let opq a g args =
  push_args a args;
  opq_args a g

(* The run [lo, b.n) of the arena's term buffer, interned as a [Sum]. *)
let sum_run a lo =
  let b = a.terms in
  b.lo <- lo;
  b.hi <- b.n;
  let h = ref 4 in
  for k = lo to b.n - 1 do
    let hk = ref (comb !h b.coeff.(k)) in
    for i = 0 to b.flen.(k) - 1 do
      hk := comb !hk b.fac.(b.fofs.(k) + i)
    done;
    h := comb !hk 17
  done;
  HC.find_or_add a.hc !h eq_sum (fun a -> Sum (list_of_run a.terms a.terms.lo a.terms.hi)) a

(* Intern a term list through the term buffer, past whatever it holds. *)
let via_buffer a ts intern =
  let b = a.terms in
  let n = b.n and nf = b.nf in
  let x = intern a (push_list b ts) in
  b.n <- n;
  b.nf <- nf;
  x

let sum a ts = via_buffer a ts sum_run

(* Canonical predicate children, in the child buffer: flatten one
   connective, sort by tag, dedup. Tag order is arbitrary but fixed within
   an arena, which is all canonicity needs: any construction order of the
   same operand set yields the same cell. *)
let rec push_flat a ~conj x =
  match node x with
  | Pand ys when conj -> push_flat_list a ~conj ys
  | Por ys when not conj -> push_flat_list a ~conj ys
  | _ -> push_arg a x

and push_flat_list a ~conj = function
  | [] -> ()
  | x :: xs ->
      push_flat a ~conj x;
      push_flat_list a ~conj xs

let canon_args a =
  let args = a.args in
  for k = 1 to a.nargs - 1 do
    let x = args.(k) in
    let m = ref k in
    while !m > 0 && tag args.(!m - 1) > tag x do
      args.(!m) <- args.(!m - 1);
      decr m
    done;
    args.(!m) <- x
  done;
  let n = ref (min a.nargs 1) in
  for k = 1 to a.nargs - 1 do
    if args.(k) != args.(!n - 1) then begin
      args.(!n) <- args.(k);
      incr n
    end
  done;
  a.nargs <- !n

let connective a ~conj =
  canon_args a;
  match a.nargs with
  | 0 -> const a (if conj then 1 else 0)
  | 1 -> a.args.(0)
  | _ ->
      if conj then HC.find_or_add a.hc (hash_args a 10) eq_pand (fun a -> Pand (args_list a)) a
      else HC.find_or_add a.hc (hash_args a 11) eq_por (fun a -> Por (args_list a)) a

let pand a xs =
  clear_args a;
  push_flat_list a ~conj:true xs;
  connective a ~conj:true

let por a xs =
  clear_args a;
  push_flat_list a ~conj:false xs;
  connective a ~conj:false

let pand2 a x y =
  clear_args a;
  push_flat a ~conj:true x;
  push_flat a ~conj:true y;
  connective a ~conj:true

(* ---------------- sum-of-products algebra ---------------- *)

let compare_factors rank fs gs =
  let rec go fs gs =
    match (fs, gs) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | f :: fs, g :: gs ->
        let c = compare_values rank f g in
        if c <> 0 then c else go fs gs
  in
  go fs gs

(* The list forms run the buffer algebra on a buffer of their own. *)
let binary_terms op ts us =
  let b = new_buf () in
  let a0 = push_list b ts in
  let b0 = push_list b us in
  let b1 = b.n in
  let r = op b a0 b0 b1 in
  list_of_run b r b.n

let merge_terms rank ts us = binary_terms (fun b -> add_runs b rank ~neg:false) ts us
let mul_terms rank ts us = binary_terms (fun b -> mul_runs b rank) ts us
let negate_terms ts = List.map (fun (t : term) -> { t with coeff = -t.coeff }) ts

(* A run reduced back to the simplest expression form. *)
let of_run a lo =
  let b = a.terms in
  match b.n - lo with
  | 0 -> const a 0
  | 1 when b.flen.(lo) = 0 -> const a b.coeff.(lo)
  | 1 when b.coeff.(lo) = 1 && b.flen.(lo) = 1 -> value a b.fac.(b.fofs.(lo))
  | _ -> sum_run a lo

let of_terms a ts = via_buffer a ts of_run

let terms_of_atom x =
  match node x with
  | Const 0 -> []
  | Const n -> [ { coeff = n; factors = [] } ]
  | Value v -> [ { coeff = 1; factors = [ v ] } ]
  | _ -> invalid_arg "Hexpr.terms_of_atom"

(* ---------------- the arena's term buffer ---------------- *)

let terms_reset a =
  a.terms.n <- 0;
  a.terms.nf <- 0

let terms_atom a x =
  let b = a.terms in
  let r = b.n in
  (match node x with
  | Const 0 -> ()
  | Const n -> push_term b n b.nf 0
  | Value v ->
      push_term b 1 b.nf 1;
      push_factor b v
  | _ -> invalid_arg "Hexpr.terms_atom");
  r

let terms_list a ts = push_list a.terms ts
let terms_add a rank a0 b0 ~neg = add_runs a.terms rank a0 b0 a.terms.n ~neg
let terms_mul a rank a0 b0 = mul_runs a.terms rank a0 b0 a.terms.n
let terms_negate a lo = negate_run a.terms lo
let terms_size a lo = run_size a.terms lo
let terms_intern a lo = of_run a lo

(* ---------------- comparisons and operators over atoms ---------------- *)

let is_atom x = match node x with Const _ | Value _ -> true | _ -> false

(* Atoms order lexicographically by (rank, id): constants at (0, min_int),
   values at (rank v, v). *)
let atom_rank rank x =
  match node x with Const _ -> 0 | Value v -> rank v | _ -> invalid_arg "Hexpr.atom_rank"

let atom_id x = match node x with Const _ -> min_int | Value v -> v | _ -> invalid_arg "Hexpr.atom_rank"

let compare_atoms rank x y =
  let c = Int.compare (atom_rank rank x) (atom_rank rank y) in
  if c <> 0 then c else Int.compare (atom_id x) (atom_id y)

(* Canonical comparison between atoms: folds constants, resolves identical
   operands, and orders operands by increasing rank (flipping the operator
   when they swap, §2.8). *)
let cmp_atoms a rank op x y =
  match (node x, node y) with
  | Const p, Const q -> const a (Ir.Types.eval_cmp op p q)
  | _ ->
      if x == y then
        const a (match op with Eq | Le | Ge -> 1 | Ne | Lt | Gt -> 0)
      else if compare_atoms rank x y <= 0 then cmp_ a op x y
      else cmp_ a (Ir.Types.swap_cmp op) y x

let is_predicate x = match node x with Cmp _ -> true | _ -> false

let op_commutative = function
  | Ubop op -> Ir.Types.binop_commutative op
  | Uuop _ -> false

let make_op2 a rank sym x y =
  clear_args a;
  if op_commutative sym && compare_atoms rank x y > 0 then begin
    push_arg a y;
    push_arg a x
  end
  else begin
    push_arg a x;
    push_arg a y
  end;
  op_args a sym

let make_op a rank sym args =
  match args with
  | [ x; y ] -> make_op2 a rank sym x y
  | args ->
      op_ a sym (if op_commutative sym then List.sort (compare_atoms rank) args else args)

let negate_pred a x =
  match node x with
  | Cmp (op, u, v) -> cmp_ a (Ir.Types.negate_cmp op) u v
  | Const n -> const a (if n = 0 then 1 else 0)
  | _ ->
      clear_args a;
      push_arg a x;
      op_args a (Uuop Ir.Types.Lnot)

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
