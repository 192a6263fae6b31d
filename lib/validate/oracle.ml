(* The independent equivalence oracle: a from-scratch iterative value-graph
   GVN in the Saleena–Paleri / RPO-hashing family (arXiv:1303.1880,
   arXiv:1504.03239). It is deliberately simple — optimistic rounds of
   hash-based expression numbering over the reachable subgraph, interleaved
   with reachability shrinking from decided branches, iterated to a
   fixpoint — and dense: every round renumbers every reachable value, for
   clarity over sparseness. Its per-round data is arrays indexed by value
   number and a table kept in the interned keys themselves.

   Independence: this module shares nothing with the engine under test
   (lib/core). It has its own DFS reachability, its own RPO walk, its own
   partition representation, and none of the paper's machinery (no touched
   lists, no predicate or value inference, no φ-predication). The common
   ground is the frozen [Ir.Func] representation, the operator semantics in
   [Ir.Types] — the very definitions the interpreter uses — and the
   declarative rule catalog (lib/rules), consulted through a deliberately
   shallow adapter: the identities are data verified against the concrete
   semantics (Rules.Verify), not engine code, so sharing them keeps the two
   implementations independent while guaranteeing that both sides simplify
   from the one table.

   Soundness of the fixpoint: value numbers are representative instruction
   ids (first member in RPO order). A round recomputes every reachable
   value's number from its operands' numbers, reading the current round's
   number when available and the previous round's otherwise (φ inputs along
   back edges). At the fixpoint the two numberings coincide, so every
   number was derived consistently from one stable partition: two values
   with the same number are congruent by construction. *)

(* One round's numbering: [vn.(i)] is instruction [i]'s value number (-1
   for ⊥, unreachable values and non-values); number [r] has the known
   constant [cval.(r)] when [known.(r)] ([cval] is 0 elsewhere). *)
type numbering = { vn : int array; known : bool array; cval : int array }

type t = {
  f : Ir.Func.t;
  final : numbering;
  block_reach : bool array;
  edge_reach : bool array;
  rounds : int;
}

(* Hash keys for value expressions over current value numbers. [Kself]
   pins a value into its own class (opaque to the oracle this round). *)
type key =
  | Kconst of int
  | Kparam of int
  | Kself of int
  | Kunop of Ir.Types.unop * int
  | Kbinop of Ir.Types.binop * int * int
  | Kcmp of Ir.Types.cmp * int * int
  | Kcall of int * int array
  | Kphi of int * int array  (* block, then (pred index, number) of each live input *)

(* Operand view for the rule-table consult: a value number plus its known
   constant. [onum = -1] marks a constant the matcher built itself. *)
type orep = { onum : int; ocst : int option }

let rules_subject : orep Rules.Engine.subject =
  {
    Rules.Engine.view =
      (fun r ->
        match r.ocst with Some c -> Rules.Engine.Sconst c | None -> Rules.Engine.Satom);
    equal =
      (fun r s ->
        match (r.ocst, s.ocst) with
        | Some a, Some b -> a = b
        | _ -> r.onum >= 0 && r.onum = s.onum);
    bconst = (fun c -> { onum = -1; ocst = Some c });
    bunop = (fun _ _ -> None);
    bbinop = (fun _ _ _ -> None);
    reduce = (fun _ -> None);
    fired = ignore;
  }

let rec ints_equal (a : int array) b k = k < 0 || (a.(k) = b.(k) && ints_equal a b (k - 1))

(* An FNV-style step over native ints. Operators are left out of the hash:
   keys that differ only there share a bucket and [equal] tells them
   apart. *)
let mix h x = (h lxor x) * 0x100000001B3

module Key = struct
  type t = key

  let equal a b =
    match (a, b) with
    | Kconst x, Kconst y | Kparam x, Kparam y | Kself x, Kself y -> x = y
    | Kunop (o, x), Kunop (o', x') -> o == o' && x = x'
    | Kbinop (o, x, y), Kbinop (o', x', y') -> o == o' && x = x' && y = y'
    | Kcmp (o, x, y), Kcmp (o', x', y') -> o == o' && x = x' && y = y'
    | Kcall (x, xs), Kcall (y, ys) | Kphi (x, xs), Kphi (y, ys) ->
        x = y && Array.length xs = Array.length ys && ints_equal xs ys (Array.length xs - 1)
    | (Kconst _ | Kparam _ | Kself _ | Kunop _ | Kbinop _ | Kcmp _ | Kcall _ | Kphi _), _ ->
        false

  let hash = function
    | Kconst c -> mix 1 c
    | Kparam k -> mix 2 k
    | Kself i -> mix 3 i
    | Kunop (_, a) -> mix 4 a
    | Kbinop (_, a, b) -> mix (mix 5 a) b
    | Kcmp (_, a, b) -> mix (mix 6 a) b
    | Kcall (tag, xs) -> Array.fold_left mix (mix 7 tag) xs
    | Kphi (b, xs) -> Array.fold_left mix (mix 8 b) xs
end

(* Keys are interned in one arena shared by every numbering round (they
   mention only stable instruction ids), so a key recurring across rounds
   finds its cell, and the round table lives in the cells' slots. *)
module HK = Util.Hashcons.Make (Key)

(* Reverse post-order over all statically present edges; unreachable blocks
   are simply skipped during numbering. *)
let rpo_order f =
  let seen = Array.make (Ir.Func.num_blocks f) false in
  let post = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      Array.iter
        (fun e -> dfs (Ir.Func.edge f e).Ir.Func.dst)
        (Ir.Func.block f b).Ir.Func.succs;
      post := b :: !post
    end
  in
  dfs Ir.Func.entry;
  Array.of_list !post

(* The constant numbering [n] proves for value [v], if any. *)
let const_of n v =
  let r = n.vn.(v) in
  if r >= 0 && n.known.(r) then Some n.cval.(r) else None

(* Reachability from the entry under the given numbering: a branch or
   switch whose scrutinee has a known constant takes only the decided
   edge. *)
let compute_reach f n =
  let block_reach = Array.make (Ir.Func.num_blocks f) false in
  let edge_reach = Array.make (Ir.Func.num_edges f) false in
  let rec visit b =
    if not block_reach.(b) then begin
      block_reach.(b) <- true;
      let succs = (Ir.Func.block f b).Ir.Func.succs in
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump -> take succs.(0)
      | Ir.Func.Return _ -> ()
      | Ir.Func.Branch c -> (
          match const_of n c with
          | Some k -> take succs.(if k <> 0 then 0 else 1)
          | None ->
              take succs.(0);
              take succs.(1))
      | Ir.Func.Switch (c, cases) -> (
          match const_of n c with
          | Some k ->
              let ix = ref (Array.length cases) (* default *) in
              Array.iteri (fun j case -> if case = k then ix := j) cases;
              take succs.(!ix)
          | None -> Array.iter take succs)
      | _ -> invalid_arg "Oracle: missing terminator"
    end
  and take e =
    edge_reach.(e) <- true;
    visit (Ir.Func.edge f e).Ir.Func.dst
  in
  visit Ir.Func.entry;
  (block_reach, edge_reach)

let bottom ni = { vn = Array.make ni (-1); known = Array.make ni false; cval = Array.make ni 0 }

(* Round [round] of numbering. [prev] is the previous round's numbering,
   read for values not yet numbered this round (φ inputs along back edges);
   -1 is the optimistic ⊥, skipped at φs. A key cell opened class [r] in
   this round iff its slot holds [round * ni + r]: a slot written in an
   earlier round is below [round * ni], so each round starts with an empty
   table without clearing one. *)
let number f arena order ~round (block_reach : bool array) (edge_reach : bool array)
    (prev : numbering) =
  let ni = Ir.Func.num_instrs f in
  let cur = bottom ni in
  let base = round * ni in
  let src v = if cur.vn.(v) >= 0 then cur else prev in
  let num v = (src v).vn.(v) in
  let cst v = const_of (src v) v in
  let intern i key =
    let cell = HK.hashcons arena key in
    let r = Util.Hashcons.slot cell - base in
    if r >= 0 then r
    else begin
      Util.Hashcons.set_slot cell (base + i);
      i
    end
  in
  let const i c =
    let r = intern i (Kconst c) in
    if r = i then begin
      cur.known.(i) <- true;
      cur.cval.(i) <- c
    end;
    r
  in
  let binop_val i op a b =
    let ra = num a and rb = num b in
    if ra < 0 || rb < 0 then intern i (Kself i)
    else
      let ca = cst a and cb = cst b in
      (* Fold constants and apply algebraic identities by consulting the
         shared rule table through a shallow adapter: an operand is its
         value number plus its known constant, and any rule whose RHS
         would need a fresh compound expression is declined (the oracle
         has no expression language — only numbers and constants). The
         adapter views an operand as a constant or an atom, so with no
         constant and two different numbers no rule can match (every
         catalog rule needs a literal, a constant or a repeated
         metavariable) and the table is not consulted. *)
      match
        match (ca, cb) with
        | None, None when ra <> rb -> None
        | _ ->
            Rules.Engine.rewrite_binop Rules.Engine.shared rules_subject op
              { onum = ra; ocst = ca } { onum = rb; ocst = cb }
      with
      | Some { ocst = Some c; _ } -> const i c
      | Some { onum = r; _ } -> r
      | None ->
          let ra, rb =
            if Ir.Types.binop_commutative op && rb < ra then (rb, ra) else (ra, rb)
          in
          intern i (Kbinop (op, ra, rb))
  in
  let cmp_val i op a b =
    let ra = num a and rb = num b in
    if ra < 0 || rb < 0 then intern i (Kself i)
    else
      match (cst a, cst b) with
      | Some x, Some y -> const i (Ir.Types.eval_cmp op x y)
      | _ ->
          if ra = rb then const i (match op with Ir.Types.Eq | Le | Ge -> 1 | Ne | Lt | Gt -> 0)
          else
            (* Normalize the mirror image: b ≷ a numbers like a ≶ b. *)
            let op, ra, rb =
              if rb < ra then (Ir.Types.swap_cmp op, rb, ra) else (op, ra, rb)
            in
            intern i (Kcmp (op, ra, rb))
  in
  (* A φ's live inputs are those along reachable edges whose number is
     not ⊥: none leaves it ⊥ (its own class), one number makes it a copy,
     several make a key of (pred index, number) pairs. *)
  let phi_val i b args (preds : int array) =
    let live = ref 0 and r0 = ref (-1) and copy = ref true in
    for ix = 0 to Array.length preds - 1 do
      if edge_reach.(preds.(ix)) then begin
        let r = num args.(ix) in
        if r >= 0 then begin
          if !live = 0 then r0 := r else if r <> !r0 then copy := false;
          incr live
        end
      end
    done;
    if !live = 0 then intern i (Kself i)
    else if !copy then !r0
    else begin
      let pairs = Array.make (2 * !live) 0 and k = ref 0 in
      for ix = 0 to Array.length preds - 1 do
        if edge_reach.(preds.(ix)) then begin
          let r = num args.(ix) in
          if r >= 0 then begin
            pairs.(!k) <- ix;
            pairs.(!k + 1) <- r;
            k := !k + 2
          end
        end
      done;
      intern i (Kphi (b, pairs))
    end
  in
  let value i b preds = function
    | Ir.Func.Const c -> const i c
    | Ir.Func.Param k -> intern i (Kparam k)
    | Ir.Func.Unop (op, a) -> (
        if num a < 0 then intern i (Kself i)
        else
          match cst a with
          | Some x -> const i (Ir.Types.eval_unop op x)
          | None -> intern i (Kunop (op, num a)))
    | Ir.Func.Binop (op, a, b') -> binop_val i op a b'
    | Ir.Func.Cmp (op, a, b') -> cmp_val i op a b'
    | Ir.Func.Opaque (tag, args) ->
        let rs = Array.map num args in
        if Array.exists (fun r -> r < 0) rs then intern i (Kself i)
        else intern i (Kcall (tag, rs))
    | Ir.Func.Phi args -> phi_val i b args preds
    | _ -> assert false
  in
  Array.iter
    (fun b ->
      if block_reach.(b) then
        let blk = Ir.Func.block f b in
        Array.iter
          (fun i ->
            let ins = Ir.Func.instr f i in
            if Ir.Func.defines_value ins then cur.vn.(i) <- value i b blk.Ir.Func.preds ins)
          blk.Ir.Func.instrs)
    order;
  cur

let run (f : Ir.Func.t) : t =
  let ni = Ir.Func.num_instrs f in
  let order = rpo_order f in
  let arena = HK.create ~size:(2 * ni) () in
  let max_rounds = ni + 8 in
  let rec go prev (block_reach, edge_reach) rounds =
    if rounds > max_rounds then failwith "Validate.Oracle: numbering did not converge";
    let cur = number f arena order ~round:rounds block_reach edge_reach prev in
    let block_reach', edge_reach' = compute_reach f cur in
    if cur = prev && block_reach' = block_reach && edge_reach' = edge_reach then
      { f; final = cur; block_reach; edge_reach; rounds }
    else go cur (block_reach', edge_reach') (rounds + 1)
  in
  let prev = bottom ni in
  go prev (compute_reach f prev) 1

let congruent t a b = t.final.vn.(a) >= 0 && t.final.vn.(a) = t.final.vn.(b)
let constant t v = const_of t.final v
let block_reachable t b = t.block_reach.(b)
let edge_reachable t e = t.edge_reach.(e)
let rounds t = t.rounds

let classes t =
  let ni = Array.length t.final.vn in
  let seen = Array.make ni false in
  Array.iter (fun n -> if n >= 0 then seen.(n) <- true) t.final.vn;
  Array.fold_left (fun k s -> if s then k + 1 else k) 0 seen
