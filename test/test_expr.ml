(* The symbolic expression algebra the engine runs (Hexpr): the canonical
   sum-of-products form is property-tested against direct numeric
   evaluation, comparison canonicalization and predicate negation against
   comparison semantics, and interning against OCaml's structural
   equality on a small tree type defined here. *)

module H = Pgvn.Hexpr

(* Value ids 0..9 with ranks = id + 1 and a numeric environment. *)
let rank v = v + 1

let eval_terms env ts =
  List.fold_left
    (fun acc t ->
      acc + (t.H.coeff * List.fold_left (fun p v -> p * env.(v)) 1 t.H.factors))
    0 ts

(* Atoms are generated as plain data and interned where a property needs
   cells. *)
type atom = C of int | V of int

let atom a = function C n -> H.const a n | V v -> H.value a v

(* Term lists hold only ints, so one arena serves every generated list. *)
let terms_of_atom =
  let a = H.create () in
  fun x -> H.terms_of_atom (atom a x)

(* Random canonical term lists, built through the algebra itself. *)
let gen_atom =
  QCheck.Gen.(
    oneof [ map (fun n -> C n) (int_range (-5) 5); map (fun v -> V v) (int_range 0 9) ])

let rec gen_terms size =
  QCheck.Gen.(
    if size = 0 then map terms_of_atom gen_atom
    else
      oneof
        [
          map terms_of_atom gen_atom;
          map2 (H.merge_terms rank) (gen_terms (size - 1)) (gen_terms (size - 1));
          map (fun t -> H.negate_terms t) (gen_terms (size - 1));
          map2 (H.mul_terms rank) (gen_terms (size - 1)) (gen_terms (size - 1));
        ])

let show_terms ts = H.to_string (H.sum (H.create ()) ts)
let arb_terms = QCheck.make (gen_terms 3) ~print:show_terms
let arb_env = QCheck.(array_of_size (QCheck.Gen.return 10) (int_range (-4) 4))

let prop_merge_is_addition =
  QCheck.Test.make ~name:"merge_terms computes addition" ~count:300
    QCheck.(triple arb_terms arb_terms arb_env)
    (fun (a, b, env) ->
      eval_terms env (H.merge_terms rank a b) = eval_terms env a + eval_terms env b)

let prop_mul_is_multiplication =
  QCheck.Test.make ~name:"mul_terms computes multiplication" ~count:300
    QCheck.(triple arb_terms arb_terms arb_env)
    (fun (a, b, env) ->
      eval_terms env (H.mul_terms rank a b) = eval_terms env a * eval_terms env b)

let prop_negate =
  QCheck.Test.make ~name:"negate_terms negates" ~count:200
    QCheck.(pair arb_terms arb_env)
    (fun (a, env) -> eval_terms env (H.negate_terms a) = -eval_terms env a)

(* Canonical-form invariants: sorted factor lists, nonzero coefficients,
   no duplicate products. *)
let prop_canonical_invariants =
  QCheck.Test.make ~name:"term lists stay canonical" ~count:300 arb_terms (fun ts ->
      let sorted_factors t =
        let rec go = function
          | a :: (b :: _ as rest) -> (rank a, a) <= (rank b, b) && go rest
          | _ -> true
        in
        go t.H.factors
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) ->
            H.compare_factors rank a.H.factors b.H.factors < 0 && strictly_increasing rest
        | _ -> true
      in
      List.for_all (fun t -> t.H.coeff <> 0 && sorted_factors t) ts && strictly_increasing ts)

(* Commutativity and associativity come for free from canonicalization:
   syntactically equal results. *)
let prop_commutative =
  QCheck.Test.make ~name:"a+b and b+a canonicalize identically" ~count:200
    QCheck.(pair arb_terms arb_terms)
    (fun (a, b) -> H.merge_terms rank a b = H.merge_terms rank b a)

let prop_associative =
  QCheck.Test.make ~name:"(a+b)+c and a+(b+c) canonicalize identically" ~count:200
    QCheck.(triple arb_terms arb_terms arb_terms)
    (fun (a, b, c) ->
      H.merge_terms rank (H.merge_terms rank a b) c
      = H.merge_terms rank a (H.merge_terms rank b c))

let prop_distributive =
  QCheck.Test.make ~name:"a*(b+c) and a*b + a*c canonicalize identically" ~count:200
    QCheck.(triple arb_terms arb_terms arb_terms)
    (fun (a, b, c) ->
      H.mul_terms rank a (H.merge_terms rank b c)
      = H.merge_terms rank (H.mul_terms rank a b) (H.mul_terms rank a c))

(* Canonical term lists intern to one cell exactly when they are equal,
   and the precomputed hash of a sum depends on its terms alone, so equal
   lists hash equally even across arenas. *)
let prop_equal_hash =
  QCheck.Test.make ~name:"equal expressions hash equally" ~count:300
    QCheck.(pair arb_terms arb_terms)
    (fun (a, b) ->
      let a1 = H.create () and a2 = H.create () in
      let ea = H.of_terms a1 a and eb = H.of_terms a1 b in
      H.equal ea eb = (a = b) && ((a <> b) || H.hash ea = H.hash (H.of_terms a2 b)))

let test_of_terms_reduction () =
  let a = H.create () in
  Alcotest.(check bool) "empty = 0" true (H.node (H.of_terms a []) = H.Const 0);
  Alcotest.(check bool) "const term" true
    (H.node (H.of_terms a [ { H.coeff = 7; factors = [] } ]) = H.Const 7);
  Alcotest.(check bool) "unit value" true
    (H.node (H.of_terms a [ { H.coeff = 1; factors = [ 3 ] } ]) = H.Value 3);
  match H.node (H.of_terms a [ { H.coeff = 2; factors = [ 3 ] } ]) with
  | H.Sum _ -> ()
  | _ -> Alcotest.fail "2*v3 must stay a sum"

(* A comparison cell viewed as plain data, for matching. *)
type shape = Sconst of int | Scmp of Ir.Types.cmp * atom * atom | Sother

let shape x =
  let atom_of y = match H.node y with H.Const n -> C n | H.Value v -> V v | _ -> assert false in
  match H.node x with
  | H.Const n -> Sconst n
  | H.Cmp (op, u, v) -> Scmp (op, atom_of u, atom_of v)
  | _ -> Sother

let test_cmp_canonicalization () =
  let a = H.create () in
  let cmp op x y = H.cmp_atoms a rank op (atom a x) (atom a y) in
  (* Constants order before values; swapping flips the operator. *)
  (match cmp Ir.Types.Gt (V 4) (C 1) with
  | e when shape e = Scmp (Ir.Types.Lt, C 1, V 4) -> ()
  | e -> Alcotest.failf "bad canonicalization: %s" (H.to_string e));
  (* Higher-ranked value second. *)
  (match cmp Ir.Types.Le (V 7) (V 2) with
  | e when shape e = Scmp (Ir.Types.Ge, V 2, V 7) -> ()
  | e -> Alcotest.failf "bad value ordering: %s" (H.to_string e));
  (* Identical operands fold. *)
  (match cmp Ir.Types.Le (V 5) (V 5) with
  | e when shape e = Sconst 1 -> ()
  | e -> Alcotest.failf "x<=x should fold to 1: %s" (H.to_string e));
  match cmp Ir.Types.Lt (C 3) (C 4) with
  | e when shape e = Sconst 1 -> ()
  | e -> Alcotest.failf "3<4 should fold: %s" (H.to_string e)

let gen_atom_arb = QCheck.make gen_atom

let eval_atom env x =
  match H.node x with H.Const n -> n | H.Value v -> env.(v) | _ -> assert false

let prop_cmp_semantics =
  QCheck.Test.make ~name:"cmp_atoms preserves comparison semantics" ~count:400
    QCheck.(triple (pair gen_atom_arb gen_atom_arb) (int_range 0 5) arb_env)
    (fun ((x, y), opi, env) ->
      let a = H.create () in
      let op = List.nth [ Ir.Types.Eq; Ne; Lt; Le; Gt; Ge ] opi in
      let x = atom a x and y = atom a y in
      let expected = Ir.Types.eval_cmp op (eval_atom env x) (eval_atom env y) in
      match H.node (H.cmp_atoms a rank op x y) with
      | H.Const c ->
          (* Folding is only valid when forced: equal atoms or two consts. *)
          c = expected
      | H.Cmp (op', u, v) -> Ir.Types.eval_cmp op' (eval_atom env u) (eval_atom env v) = expected
      | _ -> false)

let prop_negate_pred =
  QCheck.Test.make ~name:"negate_pred inverts comparison truth" ~count:300
    QCheck.(triple (pair gen_atom_arb gen_atom_arb) (int_range 0 5) arb_env)
    (fun ((x, y), opi, env) ->
      let a = H.create () in
      let op = List.nth [ Ir.Types.Eq; Ne; Lt; Le; Gt; Ge ] opi in
      let rec eval_pred p =
        match H.node p with
        | H.Const n -> n <> 0
        | H.Cmp (op, u, v) -> Ir.Types.eval_cmp op (eval_atom env u) (eval_atom env v) = 1
        | H.Op (H.Uuop Ir.Types.Lnot, [ q ]) -> not (eval_pred q)
        | _ -> assert false
      in
      let p = H.cmp_atoms a rank op (atom a x) (atom a y) in
      eval_pred (H.negate_pred a p) = not (eval_pred p))

(* Depth-1 rule-table identities through the shallow subject. *)
let test_binop_simplifications () =
  let a = H.create () in
  let binop op x y = Helpers.Shallow.binop_atoms a rank op (atom a x) (atom a y) in
  let check msg expected got =
    Alcotest.(check string) msg (H.to_string (atom a expected)) (H.to_string got)
  in
  check "x & x = x" (V 2) (binop Ir.Types.And (V 2) (V 2));
  check "x ^ x = 0" (C 0) (binop Ir.Types.Xor (V 2) (V 2));
  check "x | 0 = x" (V 2) (binop Ir.Types.Or (V 2) (C 0));
  check "x / 1 = x" (V 2) (binop Ir.Types.Div (V 2) (C 1));
  check "x % 1 = 0" (C 0) (binop Ir.Types.Rem (V 2) (C 1));
  check "x << 0 = x" (V 2) (binop Ir.Types.Shl (V 2) (C 0));
  (* Division by zero must never fold: it traps at run time. *)
  match H.node (binop Ir.Types.Div (C 6) (C 0)) with
  | H.Op (H.Ubop Ir.Types.Div, _) -> ()
  | _ -> Alcotest.failf "6/0 must stay symbolic"

(* ------------------------------------------------------------------ *)
(* Interning: cells must be identical exactly when the interned
   structures are equal — checked against OCaml's [=] on a small tree
   type — and the canonical predicate connectives must be insensitive to
   operand order, association and duplication. *)

type tree =
  | Tc of int
  | Tv of int
  | Tcmp of Ir.Types.cmp * tree * tree
  | Top of H.opsym * tree list
  | Tsum of H.term list

let rec intern a = function
  | Tc n -> H.const a n
  | Tv v -> H.value a v
  | Tcmp (op, x, y) -> H.cmp_ a op (intern a x) (intern a y)
  | Top (sym, xs) -> H.op_ a sym (List.map (intern a) xs)
  | Tsum ts -> H.sum a ts

let rec tree_of x =
  match H.node x with
  | H.Const n -> Tc n
  | H.Value v -> Tv v
  | H.Cmp (op, u, v) -> Tcmp (op, tree_of u, tree_of v)
  | H.Op (sym, xs) -> Top (sym, List.map tree_of xs)
  | H.Sum ts -> Tsum ts
  | _ -> invalid_arg "tree_of"

(* Trees over a small alphabet, so random pairs collide often enough to
   exercise the "equal => same cell" direction. (Pand/Por are excluded
   because the arena canonicalizes them beyond structural equality; they
   get their own property below.) *)
let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let atom = oneof [ map (fun c -> Tc c) (int_range (-2) 2); map (fun v -> Tv v) (int_range 0 3) ] in
           if n = 0 then atom
           else
             frequency
               [
                 (2, atom);
                 ( 2,
                   map2
                     (fun op (x, y) -> Tcmp (op, x, y))
                     (oneofl [ Ir.Types.Eq; Ne; Lt; Le; Gt; Ge ])
                     (pair (self (n - 1)) (self (n - 1))) );
                 ( 2,
                   map2
                     (fun sym xs -> Top (sym, xs))
                     (oneofl [ H.Ubop Ir.Types.And; H.Ubop Ir.Types.Xor; H.Uuop Ir.Types.Lnot ])
                     (list_size (int_range 1 2) (self (n - 1))) );
                 (1, map (fun ts -> Tsum ts) (gen_terms 2));
               ]))

let arb_tree = QCheck.make gen_tree ~print:(fun x -> H.to_string (intern (H.create ()) x))

let prop_cons_iff_equal =
  QCheck.Test.make ~name:"consed cells identical iff Expr.equal" ~count:500
    QCheck.(pair arb_tree arb_tree)
    (fun (x, y) ->
      let a = H.create () in
      H.equal (intern a x) (intern a y) = (x = y))

let prop_cons_hash_agrees =
  QCheck.Test.make ~name:"consed hash agrees with structural bucketing" ~count:500
    QCheck.(pair arb_tree arb_tree)
    (fun (x, y) ->
      let a = H.create () in
      let cx = intern a x and cy = intern a y in
      (* Equal trees land in one cell: same tag, same precomputed hash;
         distinct trees get distinct tags. *)
      (H.tag cx = H.tag cy) = (x = y) && ((x <> y) || H.hash cx = H.hash cy))

let prop_cons_roundtrip =
  QCheck.Test.make ~name:"to_expr inverts of_expr" ~count:300 arb_tree (fun x ->
      tree_of (intern (H.create ()) x) = x)

let gen_pred =
  QCheck.Gen.(
    triple (oneofl [ Ir.Types.Eq; Ne; Lt; Le; Gt; Ge ]) (int_range 0 3) (int_range 0 3))

let prop_pand_por_canonical =
  QCheck.Test.make ~name:"pand/por insensitive to order, nesting, duplicates" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_pred))
    (fun ps ->
      let a = H.create () in
      let cs = List.map (fun (op, x, y) -> H.cmp_ a op (H.value a x) (H.value a y)) ps in
      let check conn =
        let flat = conn a cs in
        let rev = conn a (List.rev cs) in
        let dup = conn a (cs @ cs) in
        let nest_r =
          match cs with p :: rest when rest <> [] -> conn a [ p; conn a rest ] | _ -> flat
        in
        let nest_l =
          match List.rev cs with
          | p :: rest when rest <> [] -> conn a [ conn a (List.rev rest); p ]
          | _ -> flat
        in
        H.equal flat rev && H.equal flat dup && H.equal flat nest_r && H.equal flat nest_l
      in
      check H.pand && check H.por)

let test_pand_por_units () =
  let a = H.create () in
  Alcotest.(check bool) "pand [] = 1" true (H.equal (H.pand a []) (H.const a 1));
  Alcotest.(check bool) "por [] = 0" true (H.equal (H.por a []) (H.const a 0));
  let p = H.cmp_ a Ir.Types.Lt (H.value a 0) (H.value a 1) in
  Alcotest.(check bool) "pand [p] = p" true (H.equal (H.pand a [ p ]) p);
  Alcotest.(check bool) "por [p] = p" true (H.equal (H.por a [ p ]) p)

(* Hash-first interning: each constructor describes its node in the
   arena's scratch and builds it only when no cell holds it yet. Whether
   the constructor or {!H.intern} of the built node comes first, both give
   one cell; a repeated call hits, adds no cell and allocates nothing. *)

(* A pool of children per arena: atoms (small and large constants,
   values) and comparisons. *)
let pool a =
  Array.append
    (Array.init 6 (fun v -> H.value a v))
    [|
      H.const a 0;
      H.const a 1;
      H.const a 40;
      H.const a (-33);
      H.cmp_ a Ir.Types.Lt (H.value a 0) (H.value a 1);
      H.cmp_ a Ir.Types.Eq (H.value a 2) (H.const a 40);
      H.cmp_ a Ir.Types.Ne (H.value a 3) (H.value a 4);
    |]

type cons_shape =
  | Sop of H.opsym
  | Sphi_block of int
  | Sphi_pred of int (* the key predicate, a pool index *)
  | Sopq of int
  | Sand
  | Sor
  | Ssum of H.term list * H.term list * bool (* a + b, or a - b when true *)

let sum_terms ts us neg = H.merge_terms rank ts (if neg then H.negate_terms us else us)

(* Put a shape's input into the arena's scratch: the children [xs] into the
   child buffer, or a sum's operands into the term buffer, where the
   returned run then holds the sum. *)
let load a xs = function
  | Ssum (ts, us, neg) ->
      H.terms_reset a;
      let a0 = H.terms_list a ts in
      H.terms_add a rank a0 (H.terms_list a us) ~neg
  | _ ->
      H.clear_args a;
      List.iter (H.push_arg a) xs;
      0

(* The constructor reading that scratch (a connective has only its list
   form). *)
let from_scratch a p xs r = function
  | Ssum _ -> H.terms_intern a r
  | Sop sym -> H.op_args a sym
  | Sphi_block b -> H.phi_block_args a b
  | Sphi_pred k -> H.phi_pred_args a p.(k)
  | Sopq g -> H.opq_args a g
  | Sand -> H.pand a xs
  | Sor -> H.por a xs

let from_list a p xs = function
  | Ssum (ts, us, neg) -> H.of_terms a (sum_terms ts us neg)
  | Sop sym -> H.op_ a sym xs
  | Sphi_block b -> H.phi a (H.Kblock b) xs
  | Sphi_pred k -> H.phi a (H.Kpred p.(k)) xs
  | Sopq g -> H.opq a g xs
  | Sand -> H.pand a xs
  | Sor -> H.por a xs

(* The expected cell: the canonical node, built and given to [H.intern]. *)
let expected a p xs s =
  let connective unit mk =
    match List.sort_uniq (fun x y -> Int.compare (H.tag x) (H.tag y)) xs with
    | [] -> H.const a unit
    | [ x ] -> x
    | xs -> H.intern a (mk xs)
  in
  match s with
  | Sop sym -> H.intern a (H.Op (sym, xs))
  | Sphi_block b -> H.intern a (H.Phi (H.Kblock b, xs))
  | Sphi_pred k -> H.intern a (H.Phi (H.Kpred p.(k), xs))
  | Sopq g -> H.intern a (H.Opq (g, xs))
  | Sand -> connective 1 (fun xs -> H.Pand xs)
  | Sor -> connective 0 (fun xs -> H.Por xs)
  | Ssum (ts, us, neg) -> (
      match sum_terms ts us neg with
      | [] -> H.const a 0
      | [ { H.coeff; factors = [] } ] -> H.const a coeff
      | [ { H.coeff = 1; factors = [ v ] } ] -> H.value a v
      | ts -> H.intern a (H.Sum ts))

let gen_cons_shape =
  QCheck.Gen.(
    oneof
      [
        map
          (fun s -> Sop s)
          (oneofl
             [ H.Ubop Ir.Types.Div; H.Ubop Ir.Types.Shl; H.Uuop Ir.Types.Lnot; H.Uuop Ir.Types.Bnot ]);
        map (fun b -> Sphi_block b) (int_range 0 3);
        map (fun k -> Sphi_pred k) (int_range 10 12);
        map (fun g -> Sopq g) (int_range 0 3);
        return Sand;
        return Sor;
        map3 (fun ts us neg -> Ssum (ts, us, neg)) (gen_terms 2) (gen_terms 2) bool;
      ])

let show_cons_shape = function
  | Sop s -> H.to_string (H.op_ (H.create ()) s [])
  | Sphi_block b -> Printf.sprintf "phi B%d" b
  | Sphi_pred k -> Printf.sprintf "phi P%d" k
  | Sopq g -> Printf.sprintf "opq %d" g
  | Sand -> "pand"
  | Sor -> "por"
  | Ssum (ts, us, neg) ->
      Printf.sprintf "(%s) %s (%s)" (show_terms ts) (if neg then "-" else "+") (show_terms us)

let arb_interning =
  QCheck.make
    QCheck.Gen.(pair gen_cons_shape (list_size (int_range 0 4) (int_range 0 12)))
    ~print:(fun (s, ix) ->
      show_cons_shape s ^ " over pool " ^ String.concat "," (List.map string_of_int ix))

let counts a =
  let s = H.stats a in
  (s.Util.Hashcons.live, s.Util.Hashcons.interned)

(* The minor words [f x] allocates. *)
let words f x =
  let w0 = Gc.minor_words () in
  let r = f x in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

let prop_hash_first_interning =
  QCheck.Test.make ~name:"hash-first constructors intern as the built node does" ~count:500
    arb_interning (fun (s, ix) ->
      let overhead = snd (words ignore ()) in
      (* Constructor first: a miss builds the cell the node names; a
         repeat hits it, adds no cell and allocates nothing. *)
      let a = H.create () in
      let p = pool a in
      let xs = List.map (Array.get p) ix in
      let r = load a xs s in
      let c = from_scratch a p xs r s in
      let n = counts a in
      let c1, w = words (fun () -> from_scratch a p xs r s) () in
      let first =
        c1 == c && w = overhead && from_list a p xs s == c && expected a p xs s == c && counts a = n
      in
      (* Node first: both constructors then hit its cell. *)
      let b = H.create () in
      let q = pool b in
      let ys = List.map (Array.get q) ix in
      let e = expected b q ys s in
      let n = counts b in
      let r = load b ys s in
      first && from_scratch b q ys r s == e && from_list b q ys s == e && counts b = n)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_merge_is_addition;
    QCheck_alcotest.to_alcotest prop_mul_is_multiplication;
    QCheck_alcotest.to_alcotest prop_negate;
    QCheck_alcotest.to_alcotest prop_canonical_invariants;
    QCheck_alcotest.to_alcotest prop_commutative;
    QCheck_alcotest.to_alcotest prop_associative;
    QCheck_alcotest.to_alcotest prop_distributive;
    QCheck_alcotest.to_alcotest prop_equal_hash;
    Alcotest.test_case "of_terms reductions" `Quick test_of_terms_reduction;
    Alcotest.test_case "comparison canonicalization" `Quick test_cmp_canonicalization;
    QCheck_alcotest.to_alcotest prop_cmp_semantics;
    QCheck_alcotest.to_alcotest prop_negate_pred;
    Alcotest.test_case "algebraic binop simplifications" `Quick test_binop_simplifications;
    QCheck_alcotest.to_alcotest prop_cons_iff_equal;
    QCheck_alcotest.to_alcotest prop_cons_hash_agrees;
    QCheck_alcotest.to_alcotest prop_cons_roundtrip;
    QCheck_alcotest.to_alcotest prop_pand_por_canonical;
    Alcotest.test_case "pand/por unit and singleton collapse" `Quick test_pand_por_units;
    QCheck_alcotest.to_alcotest prop_hash_first_interning;
  ]
