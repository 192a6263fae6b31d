(* The GVN engine (paper Figures 3–7): the sparse touched-worklist driver,
   symbolic evaluation with constant folding / algebraic simplification /
   global reassociation, congruence finding over the TABLE, unreachable-code
   analysis of edges, and predicate & value inference along dominating
   edges. φ-predication (Figure 8) lives in {!Phipred}.

   Expressions are hash-consed {!Hexpr} cells interned in the run's arena
   (State.arena): every structurally distinct expression exists exactly
   once, so TABLE probes hash a precomputed key and compare pointers —
   the probe cost no longer grows with expression depth. *)

open State

(* ------------------------------------------------------------------ *)
(* Dominating-edge walks (Figure 7).                                   *)

let idom_of st b =
  match st.config.Config.variant with
  | Config.Complete -> Analysis.Inc_dom.idom st.inc_dom b
  | Config.Practical -> (State.dom st).Analysis.Dom.idom.(b)

(* What [controlling_edge] returns when the walk continues at the
   immediate dominator, and when it stops. *)
let up = -1
let stop = -2

(* One step of a walk at block [b]: its sole reachable incoming edge, or
   [up] when it has none (or, outside the optimistic mode, an incoming back
   edge), or [stop] when the practical variant's controlling edge is a back
   edge. Two array reads, nothing allocated: State keeps the sole edge. *)
let controlling_edge st b =
  if st.config.Config.mode <> Config.Optimistic && st.back_in.(b) then up
  else
    let e = st.sole_in.(b) in
    if e < 0 then up
    else if st.config.Config.variant = Config.Practical && st.backward.(e) then stop
    else e

(* Atom congruence, for predicate relatedness: constants by value, values by
   congruence class (a value congruent to a constant matches it too). *)
let atoms_congruent st a b =
  match (Hexpr.node a, Hexpr.node b) with
  | Hexpr.Const x, Hexpr.Const y -> x = y
  | Hexpr.Const x, Hexpr.Value v | Hexpr.Value v, Hexpr.Const x -> (
      match (cls st st.class_of.(v)).leader with
      | Lconst n -> n = x
      | Lundef | Lvalue _ -> false)
  | Hexpr.Value x, Hexpr.Value y -> (
      let cx = st.class_of.(x) and cy = st.class_of.(y) in
      cx = cy
      ||
      match ((cls st cx).leader, (cls st cy).leader) with
      | Lconst nx, Lconst ny -> nx = ny
      | (Lundef | Lvalue _ | Lconst _), _ -> false)
  | _ -> false

let const_atom x = match Hexpr.node x with Hexpr.Const n -> Some n | _ -> None

(* Does the equality predicate of edge [e] rewrite [v]? Canonical equality
   predicates are [Cmp (Eq, x, y)] with rank x < rank y: when [y] is
   congruent to [v], [v] may be replaced by the lower-ranking [x]. *)
let equality_rewrite st e v =
  match st.pred_edge.(e) with
  | Some p -> (
      match Hexpr.node p with
      | Hexpr.Cmp (Ir.Types.Eq, x, y) -> (
          match Hexpr.node y with
          | Hexpr.Value w when st.class_of.(w) = st.class_of.(v) -> Some x
          | _ -> None)
      | _ -> None)
  | None -> None

(* Whether some edge Eq predicate set now has its right operand in [v]'s
   class: without one, no walk can rewrite [v]. *)
let has_eq_facts st v = (cls st st.class_of.(v)).eq_facts > 0

(* Figure 7, Infer value at block: walk dominating edges upward from [b0],
   repeatedly rewriting [v] through equality predicates; each successful
   rewrite restarts the walk, stopping at the edge that induced the
   previous one. A value no edge fact can rewrite ends the walk at once:
   the walk would return its leader. *)
let infer_value_at_block st b0 atom =
  if not st.config.Config.value_inference then atom
  else
    match Hexpr.node atom with
    | Hexpr.Const _ -> atom
    (* The static §3 filter (no equality test mentions a member of the
       class) is kept ANDed in: it also skips some classes an edge fact
       could rewrite, and dropping it would change results. *)
    | Hexpr.Value v0 when (cls st st.class_of.(v0)).eq_operands = 0 || not (has_eq_facts st v0)
      ->
        atom
    | Hexpr.Value v0 ->
        let v = ref v0 in
        let found_const = ref None in
        let last_block = ref (-1) in
        let restart = ref true in
        while !restart do
          restart := false;
          let b = ref b0 in
          let continue_walk = ref (b0 <> !last_block && b0 >= 0) in
          while !continue_walk do
            st.stats.Run_stats.value_inference_visits <-
              st.stats.Run_stats.value_inference_visits + 1;
            let e = controlling_edge st !b in
            if e = stop then continue_walk := false
            else if e = up then b := idom_of st !b
            else (
              match equality_rewrite st e !v with
              | Some x -> (
                  match Hexpr.node x with
                  | Hexpr.Value xv ->
                      v := xv;
                      last_block := !b;
                      (* The restarted walk could only rewrite [xv] again. *)
                      restart := has_eq_facts st xv;
                      continue_walk := false
                  | Hexpr.Const _ ->
                      (* Inferred constant: nothing ranks lower; finish. *)
                      found_const := Some x;
                      continue_walk := false
                  | _ -> b := (Ir.Func.edge st.f e).Ir.Func.src)
              | None -> b := (Ir.Func.edge st.f e).Ir.Func.src);
            if !continue_walk && (!b < 0 || !b = !last_block) then continue_walk := false
          done
        done;
        (match !found_const with
        | Some c -> c
        | None -> (
            match leader_atom st !v with Some a -> a | None -> Hexpr.value st.arena !v))
    | _ -> atom

(* Figure 7, Infer value at edge: used for φ arguments, which are "used at
   the edge which carries them". *)
let infer_value_at_edge st e atom =
  if not st.config.Config.value_inference then atom
  else
    match Hexpr.node atom with
    | Hexpr.Value v -> (
        match equality_rewrite st e v with
        | Some x -> (
            match Hexpr.node x with
            | Hexpr.Const _ -> x
            | Hexpr.Value w -> (
                match leader_atom st w with Some a -> a | None -> x)
            | _ -> infer_value_at_block st (Ir.Func.edge st.f e).Ir.Func.src atom)
        | None -> infer_value_at_block st (Ir.Func.edge st.f e).Ir.Func.src atom)
    | _ -> atom

(* §3 filter for predicate inference: a query can only be decided when a
   fact relates congruent operands or a congruent value against a constant;
   both require some query operand to be a constant (directly or via its
   leader) or to share a class with a comparison operand. *)
let matchable st x =
  match Hexpr.node x with
  | Hexpr.Const _ -> true
  | Hexpr.Value v -> (
      let c = cls st st.class_of.(v) in
      c.cmp_operands > 0 || match c.leader with Lconst _ -> true | Lundef | Lvalue _ -> false)
  | _ -> false

(* The implication-closure term of a query/fact atom: constants by value,
   values by congruence class (so class-congruent operands unify exactly as
   [atoms_congruent] would); a class led by a constant is that constant. *)
let closure_term st x =
  match Hexpr.node x with
  | Hexpr.Const k -> Some (Pred.Atom.Const k)
  | Hexpr.Value v -> (
      match (cls st st.class_of.(v)).leader with
      | Lconst n -> Some (Pred.Atom.Const n)
      | Lundef | Lvalue _ -> Some (Pred.Atom.Term st.class_of.(v)))
  | _ -> None

(* Extension to Figure 7 (config [pred_closure]): when no *single*
   dominating fact decides the query, ask the {!Pred.Closure} decision
   procedure over the *conjunction* of every fact the walk saw. The walk
   below collects two kinds of facts: edge predicates [Infer.decide]
   already failed on one at a time ([tried]), and facts the single-fact
   walk cannot even express — a switch default edge carries no predicate
   but excludes every case ([untried]). A fallback is worth attempting only
   when facts could combine (two or more) or when some fact was never
   tried singly. *)
let closure_fallback st ~qop ~qa ~qb ~facts ~untried ~mentions ~record =
  let n_facts = List.length facts in
  (* Occurrence prefilter (in the spirit of the §3 filters): a non-constant
     query term the facts never mention cannot be constrained — the walk
     tracked [mentions] as it collected, so undecidable queries cost
     nothing here. *)
  if mentions && (n_facts >= 2 || (untried && n_facts >= 1)) then begin
    match (closure_term st qa, closure_term st qb) with
    | Some ta, Some tb ->
        let atoms =
          List.filter_map
            (fun (fop, fa, fb) ->
              match (closure_term st fa, closure_term st fb) with
              | Some a, Some b -> Some (Pred.Atom.make fop a b)
              | _ -> None)
            facts
        in
        if atoms <> [] then begin
          st.stats.Run_stats.pred_closure_queries <-
            st.stats.Run_stats.pred_closure_queries + 1;
          let cl = Pred.Closure.create () in
          List.iter (Pred.Closure.assume cl) atoms;
          if Pred.Closure.contradictory cl then
            st.stats.Run_stats.pred_contradictions <-
              st.stats.Run_stats.pred_contradictions + 1;
          match Pred.Closure.decide cl qop ta tb with
          | Pred.Closure.True ->
              record true;
              Some (Hexpr.const st.arena 1)
          | Pred.Closure.False ->
              record false;
              Some (Hexpr.const st.arena 0)
          | Pred.Closure.Unknown -> None
        end
        else None
    | _ -> None
  end
  else None

(* The dynamic counterpart of [matchable]: a fact decides a query only if
   it names every value operand of the query (a congruent value, or a value
   against a constant), and the multi-fact fallback runs only when the
   collected facts mention both query terms. A value in a class led by a
   value can only be named from inside the class, so the class needs a
   fact operand; constants, and values congruent to one, are left to the
   walk. Compound operands are never named at all. *)
let named st x =
  match Hexpr.node x with
  | Hexpr.Const _ -> true
  | Hexpr.Value v -> (
      let c = cls st st.class_of.(v) in
      c.cmp_facts > 0 || match c.leader with Lconst _ -> true | Lundef | Lvalue _ -> false)
  | _ -> false

(* One predicate query on a walk: open until the first dominating fact
   that decides it. *)
type query = {
  qop : Ir.Types.cmp;
  qa : Hexpr.t;
  qb : Hexpr.t;
  mutable edge : int; (* the deciding edge; -1 while open *)
  mutable verdict : bool;
  mutable result : Hexpr.t; (* the query, until it is decided *)
  (* Dominating facts collected for the multi-fact fallback, only under
     [pred_closure] and when both query operands are closure terms (a
     constant or a value), keeping the default walk allocation-free. *)
  collect : bool;
  mutable facts : (Ir.Types.cmp * Hexpr.t * Hexpr.t) list;
  mutable untried : bool; (* some fact was never tried singly *)
  (* Occurrence tracking for the fallback's prefilter: a query term is
     "mentioned" when some collected fact constrains it (constants are
     always constrained — they connect through the closure's zero node). *)
  mutable mention_a : bool;
  mutable mention_b : bool;
}

(* The query for [p], or [None] when no walk can decide it: the §3 filter
   and the per-class fact counts, ANDed. *)
let open_query st p =
  match Hexpr.node p with
  | Hexpr.Cmp (qop, qa, qb)
    when st.config.Config.predicate_inference
         && (matchable st qa || matchable st qb)
         && named st qa && named st qb ->
      let termable x =
        match Hexpr.node x with Hexpr.Const _ | Hexpr.Value _ -> true | _ -> false
      in
      let collect = st.config.Config.pred_closure && termable qa && termable qb in
      Some
        {
          qop;
          qa;
          qb;
          edge = -1;
          verdict = false;
          result = p;
          collect;
          facts = [];
          untried = false;
          mention_a = collect && const_atom qa <> None;
          mention_b = collect && const_atom qb <> None;
        }
  | _ -> None

(* A switch default edge carries no predicate expression, but excludes
   every case: scrutinee ≠ case, for each case. Collected only when the
   scrutinee is congruent to a query operand: a case-exclusion fact can
   reach the query terms in the closure in one hop or not at all (its other
   endpoint is a constant), and switch-heavy routines produce piles of them
   otherwise. *)
let collect_default_edge st q e =
  match st.switch_default.(e) with
  | Some (c, cases) -> (
      match leader_atom st c with
      | Some scrut ->
          let rel_a = atoms_congruent st scrut q.qa and rel_b = atoms_congruent st scrut q.qb in
          if rel_a || rel_b then begin
            Array.iter
              (fun k -> q.facts <- (Ir.Types.Ne, scrut, Hexpr.const st.arena k) :: q.facts)
              cases;
            q.untried <- true;
            if rel_a then q.mention_a <- true;
            if rel_b then q.mention_b <- true
          end
      | None -> ())
  | None -> ()

(* A decided claim, when both query operands are atoms. *)
let claim_atoms q =
  let atom x =
    match Hexpr.node x with
    | Hexpr.Const k -> Some (Run_stats.Aconst k)
    | Hexpr.Value v -> Some (Run_stats.Avalue v)
    | _ -> None
  in
  match (atom q.qa, atom q.qb) with Some a, Some b -> Some (a, b) | _ -> None

(* Figure 7, Infer value of predicate, for every query in [qs] at once:
   one walk up the dominating edges, in which each query stops at its own
   first deciding fact. The walk ends when every query is decided. Claims
   are recorded afterwards, query by query, so they come out in the order
   separate walks would record them; an undecided query then tries the
   multi-fact fallback. *)
let walk_queries st b0 qs =
  let fault = Infer.fault () in
  let same = atoms_congruent st in
  let n_open = ref (List.length qs) in
  let try_fact q e fop fa fb =
    if q.edge < 0 then
      let v = Infer.decide ~same ~const:const_atom ~fop ~fa ~fb ~qop:q.qop ~qa:q.qa ~qb:q.qb in
      match match fault with None -> v | Some f -> f v with
      | Infer.True | Infer.False as v ->
          q.edge <- e;
          q.verdict <- v = Infer.True;
          decr n_open
      | Infer.Unknown ->
          if q.collect then begin
            q.facts <- (fop, fa, fb) :: q.facts;
            if not q.mention_a then q.mention_a <- same fa q.qa || same fb q.qa;
            if not q.mention_b then q.mention_b <- same fa q.qb || same fb q.qb
          end
  in
  let rec try_facts e fop fa fb = function
    | [] -> ()
    | q :: rest ->
        try_fact q e fop fa fb;
        try_facts e fop fa fb rest
  in
  let rec collect_defaults e = function
    | [] -> ()
    | q :: rest ->
        if q.edge < 0 && q.collect then collect_default_edge st q e;
        collect_defaults e rest
  in
  let b = ref b0 in
  while !n_open > 0 && !b >= 0 do
    st.stats.Run_stats.predicate_inference_visits <-
      st.stats.Run_stats.predicate_inference_visits + 1;
    let e = controlling_edge st !b in
    if e = stop then b := -1
    else if e = up then b := idom_of st !b
    else begin
      (match st.pred_edge.(e) with
      | None -> collect_defaults e qs
      | Some fact -> (
          match Hexpr.node fact with
          | Hexpr.Cmp (fop, fa, fb) -> try_facts e fop fa fb qs
          | _ -> ()));
      b := (Ir.Func.edge st.f e).Ir.Func.src
    end
  done;
  List.iter
    (fun q ->
      if q.edge >= 0 then begin
        (match claim_atoms q with
        | Some (a, b) ->
            Run_stats.record_claim st.stats ~block:b0 ~by:(Run_stats.Edge q.edge) ~op:q.qop ~a
              ~b ~verdict:q.verdict
        | None -> ());
        q.result <- Hexpr.const st.arena (if q.verdict then 1 else 0)
      end
      else if q.collect then
        let record verdict =
          match claim_atoms q with
          | Some (a, b) ->
              Run_stats.record_claim st.stats ~block:b0 ~by:Run_stats.Closure ~op:q.qop ~a ~b
                ~verdict
          | None -> ()
        in
        match
          closure_fallback st ~qop:q.qop ~qa:q.qa ~qb:q.qb ~facts:q.facts ~untried:q.untried
            ~mentions:(q.mention_a && q.mention_b) ~record
        with
        | Some decided -> q.result <- decided
        | None -> ())
    qs

let result p = function Some q -> q.result | None -> p

let infer_predicate st b0 p =
  match open_query st p with
  | None -> p
  | Some q ->
      walk_queries st b0 [ q ];
      q.result

(* Both polarities of a branch, in one walk. *)
let infer_predicate_pair st b0 pt pf =
  match (open_query st pt, open_query st pf) with
  | None, None -> (pt, pf)
  | qt, qf ->
      walk_queries st b0 (List.filter_map Fun.id [ qt; qf ]);
      (result pt qt, result pf qf)

(* The leader atom of an operand with value inference applied (what the
   paper's symbolic evaluation substitutes for each operand). [None] while
   the operand is still ⊥ (INITIAL). *)
let eval_operand st b v =
  match leader_atom st v with
  | None -> None
  | Some atom -> Some (infer_value_at_block st b atom)

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of instructions (Figure 4).                     *)

let rank_fn st v = st.rank.(v)

(* Terms of an atom, forward-propagating the defining expression of its
   congruence class when global reassociation is on. *)
let atom_terms ~propagate st atom =
  match Hexpr.node atom with
  | Hexpr.Value v when propagate -> (
      match (cls st st.class_of.(v)).expr with
      | Some e -> (
          match Hexpr.node e with
          | Hexpr.Sum ts -> ts
          | _ -> Hexpr.terms_of_atom atom)
      | None -> Hexpr.terms_of_atom atom)
  | _ -> Hexpr.terms_of_atom atom

let eval_arith st (kind : [ `Add | `Sub | `Mul | `Neg ]) atoms =
  let cfg = st.config in
  let rank = rank_fn st in
  if cfg.Config.algebraic_simplification then begin
    let build ~propagate =
      let ts = List.map (atom_terms ~propagate st) atoms in
      match (kind, ts) with
      | `Add, [ a; b ] -> Hexpr.merge_terms rank a b
      | `Sub, [ a; b ] -> Hexpr.merge_terms rank a (Hexpr.negate_terms b)
      | `Mul, [ a; b ] -> Hexpr.mul_terms rank a b
      | `Neg, [ a ] -> Hexpr.negate_terms a
      | _ -> invalid_arg "eval_arith"
    in
    let propagate = cfg.Config.reassociation in
    let ts = build ~propagate in
    let ts =
      if propagate && Hexpr.size_of_terms ts > cfg.Config.propagation_limit then
        build ~propagate:false
      else ts
    in
    Hexpr.of_terms st.arena ts
  end
  else
    let op : Hexpr.opsym =
      match kind with
      | `Add -> Hexpr.Ubop Ir.Types.Add
      | `Sub -> Hexpr.Ubop Ir.Types.Sub
      | `Mul -> Hexpr.Ubop Ir.Types.Mul
      | `Neg -> Hexpr.Uuop Ir.Types.Neg
    in
    match (cfg.Config.constant_folding, op, List.map Hexpr.node atoms) with
    | true, Hexpr.Ubop bop, [ Hexpr.Const a; Hexpr.Const b ]
      when not (Ir.Types.binop_can_trap bop a b) ->
        Hexpr.const st.arena (Ir.Types.eval_binop bop a b)
    | true, Hexpr.Uuop uop, [ Hexpr.Const a ] ->
        Hexpr.const st.arena (Ir.Types.eval_unop uop a)
    | _ -> Hexpr.op_ st.arena op atoms (* syntactic: no commutative reordering *)

let eval_nonassoc_binop st op x y =
  let cfg = st.config in
  if cfg.Config.algebraic_simplification then Rewrite.binop_atoms st op x y
  else
    match (cfg.Config.constant_folding, Hexpr.node x, Hexpr.node y) with
    | true, Hexpr.Const a, Hexpr.Const b when not (Ir.Types.binop_can_trap op a b) ->
        Hexpr.const st.arena (Ir.Types.eval_binop op a b)
    | _ -> Hexpr.op_ st.arena (Hexpr.Ubop op) [ x; y ] (* syntactic *)

let eval_unop st op x =
  let cfg = st.config in
  if cfg.Config.algebraic_simplification then Rewrite.unop_atom st op x
  else
    match (cfg.Config.constant_folding, Hexpr.node x) with
    | true, Hexpr.Const a -> Hexpr.const st.arena (Ir.Types.eval_unop op a)
    | _ -> Hexpr.op_ st.arena (Hexpr.Uuop op) [ x ] (* syntactic *)

let eval_cmp st op x y =
  match (Hexpr.node x, Hexpr.node y) with
  | Hexpr.Const a, Hexpr.Const b when st.config.Config.constant_folding ->
      Hexpr.const st.arena (Ir.Types.eval_cmp op a b)
  | _ ->
      if st.config.Config.algebraic_simplification then
        Hexpr.cmp_atoms st.arena (rank_fn st) op x y
      else Hexpr.cmp_ st.arena op x y

(* ------------------------------------------------------------------ *)
(* §6 extension (off by default): distribute operations over φ-expressions,
   φ(x1, x2) op φ(y1, y2) → φ(x1 op y1, x2 op y2), re-looking each combined
   argument up in the TABLE so the result matches an existing value's
   expression. Captures the Rüthing–Knoop–Steffen congruences (Figure 14). *)

let phi_expr_of_atom st atom =
  match Hexpr.node atom with
  | Hexpr.Value v -> (
      match (cls st st.class_of.(v)).expr with
      | Some e -> (
          match Hexpr.node e with
          | Hexpr.Phi (k, args) -> Some (k, args)
          | _ -> None)
      | None -> None)
  | _ -> None

(* TABLE probes and expression-to-atom reduction live in {!Rewrite}, which
   shares them with the rule matcher's deep subject. *)
let table_find = Rewrite.table_find
let atom_of_expr = Rewrite.atom_of_expr

let try_phi_distribution st combine x y =
  if not st.config.Config.phi_distribution then None
  else
    let build key pairs =
      let rec atoms acc = function
        | [] -> Some (List.rev acc)
        | (a, b) :: rest -> (
            match atom_of_expr st (combine a b) with
            | Some atom -> atoms (atom :: acc) rest
            | None -> None)
      in
      match atoms [] pairs with
      | None -> None
      | Some (first :: rest) when List.for_all (Hexpr.equal first) rest -> Some first
      | Some args -> Some (Hexpr.phi st.arena key args)
    in
    match (phi_expr_of_atom st x, phi_expr_of_atom st y) with
    | Some (kx, xs), Some (ky, ys)
      when Hexpr.equal_key kx ky && List.length xs = List.length ys ->
        build kx (List.combine xs ys)
    | Some (kx, xs), None when Hexpr.is_atom y -> build kx (List.map (fun a -> (a, y)) xs)
    | None, Some (ky, ys) when Hexpr.is_atom x -> build ky (List.map (fun b -> (x, b)) ys)
    | _ -> None

(* φ evaluation: drop arguments on unreachable edges and ⊥ arguments
   (optimistically top), reduce when all remaining arguments agree, and key
   the expression by the block predicate (φ-predication) or the block.
   Canonical-order arguments are gathered through the per-edge scratch
   array [st.phi_scratch] (all [None] between evaluations), replacing the
   former quadratic association-list lookups. *)
let eval_phi st b v (args : int array) =
  let blk = Ir.Func.block st.f b in
  let preds = blk.Ir.Func.preds in
  if st.config.Config.mode <> Config.Optimistic && has_incoming_back_edge st b then
    (* Balanced / pessimistic: a cyclic φ is a unique value (§2.6). *)
    Some (Hexpr.self st.arena v)
  else begin
    let pairs = ref [] in
    for ix = Array.length preds - 1 downto 0 do
      let e = preds.(ix) in
      if st.reach_edge.(e) then
        match leader_atom st args.(ix) with
        | None -> () (* ⊥: optimistically ignored *)
        | Some atom -> pairs := (e, infer_value_at_edge st e atom) :: !pairs
    done;
    match !pairs with
    | [] -> None
    | (_, first) :: rest when List.for_all (fun (_, a) -> Hexpr.equal first a) rest ->
        Some first
    | pairs ->
        List.iter (fun (e, a) -> st.phi_scratch.(e) <- Some a) pairs;
        let use_predicate =
          st.config.Config.phi_predication
          && st.pred_block.(b) <> None
          && (* the canonical order must cover exactly the live arguments *)
          Array.length st.canonical.(b) = List.length pairs
          && Array.for_all (fun e -> st.phi_scratch.(e) <> None) st.canonical.(b)
        in
        let result =
          if use_predicate then
            match st.pred_block.(b) with
            | Some p ->
                let atoms =
                  Array.to_list
                    (Array.map (fun e -> Option.get st.phi_scratch.(e)) st.canonical.(b))
                in
                Some (Hexpr.phi st.arena (Hexpr.Kpred p) atoms)
            | None -> assert false
          else Some (Hexpr.phi st.arena (Hexpr.Kblock b) (List.map snd pairs))
        in
        List.iter (fun (e, _) -> st.phi_scratch.(e) <- None) pairs;
        result
  end

(* Figure 4, Perform symbolic evaluation: the expression an instruction
   computes, over current class leaders, after folding / simplification /
   reassociation and predicate inference. [None] = ⊥ (no information yet:
   some operand is still optimistically undetermined). *)
let symbolic_eval st b v (ins : Ir.Func.instr) : Hexpr.t option =
  let operand w = eval_operand st b w in
  let result =
    match ins with
    | Ir.Func.Const n -> Some (Hexpr.const st.arena n)
    | Ir.Func.Param _ -> Some (Hexpr.self st.arena v)
    | Ir.Func.Phi args -> eval_phi st b v args
    | Ir.Func.Unop (Ir.Types.Neg, a) -> (
        match operand a with Some x -> Some (eval_arith st `Neg [ x ]) | None -> None)
    | Ir.Func.Unop (op, a) -> (
        match operand a with Some x -> Some (eval_unop st op x) | None -> None)
    | Ir.Func.Binop (op, a, b') -> (
        match (operand a, operand b') with
        | Some x, Some y -> (
            let plain u w =
              match op with
              | Ir.Types.Add -> eval_arith st `Add [ u; w ]
              | Ir.Types.Sub -> eval_arith st `Sub [ u; w ]
              | Ir.Types.Mul -> eval_arith st `Mul [ u; w ]
              | op -> eval_nonassoc_binop st op u w
            in
            match try_phi_distribution st plain x y with
            | Some e -> Some e
            | None -> Some (plain x y))
        | _ -> None)
    | Ir.Func.Cmp (op, a, b') -> (
        match (operand a, operand b') with
        | Some x, Some y -> Some (eval_cmp st op x y)
        | _ -> None)
    | Ir.Func.Opaque (tag, args) ->
        let atoms = Array.map (fun w -> operand w) args in
        if Array.exists (fun a -> a = None) atoms then None
        else Some (Hexpr.opq st.arena tag (Array.to_list (Array.map Option.get atoms)))
    | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> assert false
  in
  let result =
    match result with
    | Some p when Hexpr.is_predicate p && st.config.Config.predicate_inference ->
        Some (infer_predicate st b p)
    | r -> r
  in
  (* §2.9 SCCP emulation: non-constant expressions collapse to the value
     itself — only constants and reachability are tracked. *)
  match result with
  | None -> result
  | Some e -> (
      match Hexpr.node e with
      | Hexpr.Const _ -> result
      | _ -> if st.config.Config.sccp_only then Some (Hexpr.self st.arena v) else result)

(* ------------------------------------------------------------------ *)
(* Congruence finding (Figure 4, lines 31–58).                         *)

let class_for_expr st v (e : Hexpr.t) =
  match Hexpr.node e with
  | Hexpr.Value x -> cls st st.class_of.(x)
  | Hexpr.Const n -> (
      match table_find st e with
      | Some cid -> cls st cid
      | None ->
          let c = new_class st (Lconst n) (Some e) in
          Util.Hashcons.set_slot e c.cid;
          c.in_table <- true;
          c)
  | _ -> (
      match table_find st e with
      | Some cid -> cls st cid
      | None ->
          let c = new_class st (Lvalue v) (Some e) in
          Util.Hashcons.set_slot e c.cid;
          c.in_table <- true;
          c)

let congruence_finding st v (e : Hexpr.t option) : bool =
  match e with
  | None -> false (* still ⊥: leave in INITIAL *)
  | Some e ->
      let c0 = cls st st.class_of.(v) in
      let c = class_for_expr st v e in
      if c.cid <> c0.cid || st.changed.(v) then begin
        st.changed.(v) <- false;
        if c.cid <> c0.cid then begin
          st.stats.Run_stats.class_moves <- st.stats.Run_stats.class_moves + 1;
          unlink st v;
          link st v c;
          if c0.size = 0 then begin
            (match c0.expr with
            | Some ex when c0.in_table ->
                if Util.Hashcons.slot ex = c0.cid then Util.Hashcons.set_slot ex (-1)
            | _ -> ());
            c0.in_table <- false;
            c0.leader <- Lundef;
            c0.expr <- None
          end
          else if c0.leader = Lvalue v then begin
            (* The departing value led its class: elect a new leader, touch
               the members' definitions, and mark them CHANGED so the new
               leader propagates to their consumers. *)
            c0.leader <- Lvalue c0.head;
            iter_members st c0 (fun m ->
                touch_instr st m;
                st.changed.(m) <- true)
          end
        end;
        touch_users st v;
        true
      end
      else false

(* ------------------------------------------------------------------ *)
(* Edges (Figure 5).                                                   *)

(* The canonical predicate expressions of a branch's true and false edges,
   re-evaluated over current leaders and inferred in one walk. [None] when
   unknown or constant (§ Figure 5 line 18 nullifies constant
   predicates). *)
let branch_predicates st b cond_atom =
  match cond_atom with
  | None -> (None, None)
  | Some a -> (
      match Hexpr.node a with
      | Hexpr.Const _ -> (None, None)
      | Hexpr.Value v -> (
          let base =
            let stored_cmp =
              match (cls st st.class_of.(v)).expr with
              | Some e -> (
                  match Hexpr.node e with
                  | Hexpr.Cmp (op, x, y) -> Some (op, x, y)
                  | _ -> None)
              | None -> None
            in
            match stored_cmp with
            | Some (op, x, y) ->
                (* Refresh the stored comparison's operands. *)
                let refresh u =
                  match Hexpr.node u with
                  | Hexpr.Value w -> (
                      match eval_operand st b w with Some a -> a | None -> u)
                  | _ -> u
                in
                Hexpr.cmp_atoms st.arena (rank_fn st) op (refresh x) (refresh y)
            | None ->
                Hexpr.cmp_atoms st.arena (rank_fn st) Ir.Types.Ne
                  (Hexpr.const st.arena 0) a
          in
          match Hexpr.node base with
          | Hexpr.Cmp _ ->
              let pt, pf = infer_predicate_pair st b base (Hexpr.negate_pred st.arena base) in
              let known p = match Hexpr.node p with Hexpr.Const _ -> None | _ -> Some p in
              (known pt, known pf)
          | _ -> (None, None) (* folded to a constant *))
      | _ -> (None, None))

let expr_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Hexpr.equal x y
  | None, Some _ | Some _, None -> false

let handle_edge st e ~reachable ~pred =
  let { Ir.Func.src; dst; _ } = Ir.Func.edge st.f e in
  let any_change = ref false in
  if reachable && not st.reach_edge.(e) then begin
    any_change := true;
    mark_edge_reachable st e;
    let affected =
      if st.config.Config.variant = Config.Complete then
        Analysis.Inc_dom.insert_edge st.inc_dom ~src ~dst
      else []
    in
    if not st.reach_block.(dst) then begin
      st.reach_block.(dst) <- true;
      touch_block st dst;
      touch_block_instrs st dst
    end
    else touch_block_phis st dst;
    propagate_change_in_edge st e;
    (* Complete variant: blocks whose dominator set shrank need retouching
       too — they are the affected vertices and their subtrees. *)
    List.iter
      (fun a ->
        for b = 0 to Ir.Func.num_blocks st.f - 1 do
          if Analysis.Inc_dom.dominates st.inc_dom a b then touch_block_instrs st b
        done)
      affected
  end;
  if st.reach_edge.(e) && not (expr_opt_equal st.pred_edge.(e) pred) then begin
    any_change := true;
    set_pred_edge st e pred;
    propagate_change_in_edge st e
  end;
  !any_change

let process_outgoing_edges st b : bool =
  let blk = Ir.Func.block st.f b in
  match Ir.Func.instr st.f (Ir.Func.terminator_of_block st.f b) with
  | Ir.Func.Jump -> handle_edge st blk.Ir.Func.succs.(0) ~reachable:true ~pred:None
  | Ir.Func.Return _ -> false
  | Ir.Func.Switch (c, cases) ->
      (* §3 extension: each case edge carries the equality predicate
         scrutinee = case (so value inference applies inside the case); the
         default edge has no explicit predicate. When the scrutinee is
         congruent to a constant only the matching edge is reachable. *)
      let atom = eval_operand st b c in
      let ncases = Array.length cases in
      let reachable_ix =
        if not st.config.Config.unreachable_code then fun _ -> true
        else
          match atom with
          | None -> fun _ -> false
          | Some a -> (
              match Hexpr.node a with
              | Hexpr.Const k ->
                  let matched = ref ncases in
                  Array.iteri (fun i case -> if case = k then matched := i) cases;
                  let m = !matched in
                  fun ix -> ix = m
              | _ -> fun _ -> true)
      in
      let pred_for ix =
        if ix >= ncases then None (* default *)
        else
          match atom with
          | Some a when (match Hexpr.node a with Hexpr.Value _ -> true | _ -> false) -> (
              let p =
                Hexpr.cmp_atoms st.arena (rank_fn st) Ir.Types.Eq
                  (Hexpr.const st.arena cases.(ix))
                  a
              in
              let p = infer_predicate st b p in
              match Hexpr.node p with Hexpr.Const _ -> None | _ -> Some p)
          | _ -> None
      in
      let changed = ref false in
      Array.iteri
        (fun ix e ->
          if handle_edge st e ~reachable:(reachable_ix ix) ~pred:(pred_for ix) then
            changed := true)
        blk.Ir.Func.succs;
      !changed
  | Ir.Func.Branch c ->
      let atom = eval_operand st b c in
      let t_reach, f_reach =
        if not st.config.Config.unreachable_code then (true, true)
        else
          match atom with
          | None -> (false, false) (* ⊥ condition: neither side known reachable *)
          | Some a -> (
              match Hexpr.node a with
              | Hexpr.Const k -> (k <> 0, k = 0)
              | _ -> (true, true))
      in
      let pt, pf = branch_predicates st b atom in
      let c1 = handle_edge st blk.Ir.Func.succs.(0) ~reachable:t_reach ~pred:pt in
      let c2 = handle_edge st blk.Ir.Func.succs.(1) ~reachable:f_reach ~pred:pf in
      c1 || c2
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The main loop (Figure 3).                                           *)

(* "Everything" is every block the RPO holds: a block with no path from the
   entry is never swept, so marking or touching it would leave work no pass
   can do. *)
let mark_everything_reachable st =
  (* The complete variant's reachable dominator tree needs edges inserted
     source-first; RPO block order guarantees that. *)
  Array.iter
    (fun b ->
      st.reach_block.(b) <- true;
      Array.iter
        (fun e ->
          if not st.reach_edge.(e) then begin
            mark_edge_reachable st e;
            if st.config.Config.variant = Config.Complete then
              let { Ir.Func.src; dst; _ } = Ir.Func.edge st.f e in
              ignore (Analysis.Inc_dom.insert_edge st.inc_dom ~src ~dst)
          end)
        (Ir.Func.block st.f b).Ir.Func.succs)
    (State.rpo st).Analysis.Rpo.order

let touch_everything st =
  Array.iter
    (fun b ->
      touch_block st b;
      touch_block_instrs st b)
    (State.rpo st).Analysis.Rpo.order

exception Diverged of string

(* Publish the run's engine counters through the observability layer, under
   the stable metric names of DESIGN.md §4d. *)
let record_metrics obs (st : State.t) =
  let s = st.stats in
  Obs.add obs "pgvn.runs" 1;
  Obs.add obs "pgvn.passes" s.Run_stats.passes;
  Obs.add obs "pgvn.instrs" s.Run_stats.instrs_processed;
  Obs.add obs "pgvn.worklist.instr_touches" s.Run_stats.instr_touches;
  Obs.add obs "pgvn.worklist.block_touches" s.Run_stats.block_touches;
  Obs.add obs "pgvn.worklist.touch_slots" s.Run_stats.touch_slots;
  Obs.add obs "pgvn.vi_visits" s.Run_stats.value_inference_visits;
  Obs.add obs "pgvn.pi_visits" s.Run_stats.predicate_inference_visits;
  Obs.add obs "pgvn.pp_visits" s.Run_stats.phi_predication_visits;
  Obs.add obs "pgvn.class_moves" s.Run_stats.class_moves;
  Obs.add obs "pgvn.table_probes" s.Run_stats.table_probes;
  Obs.add obs "pgvn.table_hits" s.Run_stats.table_hits;
  if s.Run_stats.pred_closure_queries > 0 then begin
    Obs.add obs "pred.queries" s.Run_stats.pred_closure_queries;
    Obs.add obs "pred.decided.true" s.Run_stats.pred_decided_true;
    Obs.add obs "pred.decided.false" s.Run_stats.pred_decided_false;
    Obs.add obs "pred.contradictions" s.Run_stats.pred_contradictions
  end;
  let a = Hexpr.stats st.arena in
  Obs.add obs "pgvn.arena.live" a.Util.Hashcons.live;
  Obs.add obs "pgvn.arena.interned" a.Util.Hashcons.interned;
  Obs.add obs "pgvn.arena.hits" a.Util.Hashcons.hits;
  Obs.max_gauge obs "pgvn.arena.max_chain" (float_of_int a.Util.Hashcons.max_chain);
  List.iteri
    (fun i (r : Rules.Pattern.rule) ->
      let n = s.Run_stats.rules_fired.(i) in
      if n > 0 then Obs.add obs ("rules.fired." ^ r.Rules.Pattern.name) n)
    Rules.catalog;
  if s.Run_stats.const_folds > 0 then Obs.add obs "rules.fired.const-fold" s.Run_stats.const_folds

let run ?obs (config : Config.t) (f : Ir.Func.t) : State.t =
  let run_span = match obs with Some o -> Some (Obs.Trace.begin_span o.Obs.trace ~cat:"gvn" "pgvn.run") | None -> None in
  let st = State.create config f in
  let everything_reachable =
    config.Config.mode = Config.Pessimistic || not config.Config.unreachable_code
  in
  if everything_reachable then begin
    mark_everything_reachable st;
    touch_everything st
  end
  else begin
    st.reach_block.(Ir.Func.entry) <- true;
    touch_block_instrs st Ir.Func.entry
  end;
  let max_passes = 40 + (4 * Ir.Func.num_blocks f) in
  let continue_loop = ref true in
  (* The inference claims made while evaluating each instruction. A later
     optimistic pass re-evaluates an instruction under refined assumptions
     (say, a second reachable in-edge) and may no longer make a claim; each
     evaluation replaces the instruction's earlier records, so the recorded
     claims are those of the final state. *)
  let ni = Ir.Func.num_instrs f in
  let claims = Array.make ni [] in
  let evaluate b i =
    let s = st.stats in
    s.Run_stats.claims <- [];
    let ins = Ir.Func.instr st.f i in
    let changed =
      if Ir.Func.defines_value ins then congruence_finding st i (symbolic_eval st b i ins)
      else
        match ins with
        | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ -> process_outgoing_edges st b
        | _ -> false
    in
    claims.(i) <- s.Run_stats.claims;
    changed
  in
  Fun.protect ~finally:(fun () ->
      match (obs, run_span) with
      | Some o, Some sp ->
          Obs.Trace.end_span o.Obs.trace sp;
          Obs.observe_seconds o "pgvn.run_ns" (Obs.Trace.duration sp);
          record_metrics o st
      | _ -> ())
  @@ fun () ->
  while !continue_loop && has_work st do
    st.stats.Run_stats.passes <- st.stats.Run_stats.passes + 1;
    if st.stats.Run_stats.passes > max_passes then
      raise (Diverged (Printf.sprintf "gvn: %s did not converge" f.Ir.Func.name));
    let sweep_span =
      match obs with
      | Some o -> Some (Obs.Trace.begin_span o.Obs.trace ~cat:"gvn" "pgvn.sweep")
      | None -> None
    in
    let pass_changed = ref false in
    let nb = Array.length (State.rpo st).Analysis.Rpo.order in
    let bi = ref 0 in
    while !bi < nb && has_work st do
      let b = visit_block st !bi in
      incr bi;
      if st.touched_block.(b) then begin
        untouch_block st b;
        if st.reach_block.(b) && config.Config.phi_predication then
          if Phipred.compute_block_predicate st b then begin
            pass_changed := true;
            touch_block_phis st b
          end
      end;
      let instrs = (Ir.Func.block st.f b).Ir.Func.instrs in
      Array.iter
        (fun i ->
          if st.touched_instr.(i) then begin
            untouch_instr st i;
            if st.reach_block.(b) then begin
              st.stats.Run_stats.instrs_processed <- st.stats.Run_stats.instrs_processed + 1;
              if evaluate b i then pass_changed := true
            end
          end)
        instrs
    done;
    end_sweep st;
    (match (obs, sweep_span) with
    | Some o, Some sp -> Obs.Trace.end_span o.Obs.trace sp
    | _ -> ());
    if config.Config.mode <> Config.Optimistic then continue_loop := false
    else if (not config.Config.sparse) && !pass_changed then
      (* Dense formulation: a refined assumption is reapplied to the whole
         routine, not just the affected instructions. *)
      touch_everything st
  done;
  st.stats.Run_stats.claims <- Array.fold_left (fun acc l -> l @ acc) [] claims;
  st

(* ------------------------------------------------------------------ *)
(* Result queries and the per-routine strength summary (§5).           *)

(* A value is unreachable when it is still in INITIAL at the end. *)
let value_unreachable st v = st.class_of.(v) = st.initial

let value_constant st v =
  match (cls st st.class_of.(v)).leader with Lconst n -> Some n | Lundef | Lvalue _ -> None

let congruent st v w = st.class_of.(v) = st.class_of.(w) && st.class_of.(v) <> st.initial

(* A conditional terminator the run decided (at least partially): the block
   is reachable yet one or more of its out-edges is not. Reconstructed from
   the final state rather than logged during the run — reachability only
   grows during the optimistic fixpoint, so a pruning decision is exactly a
   still-unreachable out-edge of a reachable block once the run settles. *)
type decided_branch = {
  db_block : int;
  db_cond : Ir.Func.value;  (** the branch/switch condition or scrutinee *)
  db_const : int option;  (** the condition class's constant leader, if any *)
  db_pruned : int list;  (** out-edge ids left unreachable *)
}

let decided_branches (st : State.t) : decided_branch list =
  let f = st.f in
  let out = ref [] in
  for b = Ir.Func.num_blocks f - 1 downto 0 do
    if st.reach_block.(b) then
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Branch c | Ir.Func.Switch (c, _) ->
          let pruned =
            Array.to_list (Ir.Func.block f b).Ir.Func.succs
            |> List.filter (fun e -> not st.reach_edge.(e))
          in
          if pruned <> [] then
            out :=
              { db_block = b; db_cond = c; db_const = value_constant st c; db_pruned = pruned }
              :: !out
      | _ -> ()
  done;
  !out

type summary = {
  values : int;
  unreachable_values : int;
  constant_values : int; (* unreachable values counted as constants too (§5) *)
  congruence_classes : int;
  reachable_blocks : int;
  reachable_edges : int;
  passes : int;
}

let summarize (st : State.t) =
  let ni = Ir.Func.num_instrs st.f in
  let values = ref 0 and unreach = ref 0 and consts = ref 0 in
  let class_seen = Hashtbl.create 64 in
  for v = 0 to ni - 1 do
    if Ir.Func.defines_value (Ir.Func.instr st.f v) then begin
      incr values;
      if value_unreachable st v then begin
        incr unreach;
        incr consts
      end
      else begin
        (match (cls st st.class_of.(v)).leader with
        | Lconst _ -> incr consts
        | Lundef | Lvalue _ -> ());
        Hashtbl.replace class_seen st.class_of.(v) ()
      end
    end
  done;
  {
    values = !values;
    unreachable_values = !unreach;
    constant_values = !consts;
    congruence_classes = Hashtbl.length class_seen;
    reachable_blocks = Array.fold_left (fun n r -> if r then n + 1 else n) 0 st.reach_block;
    reachable_edges = Array.fold_left (fun n r -> if r then n + 1 else n) 0 st.reach_edge;
    passes = st.stats.Run_stats.passes;
  }
