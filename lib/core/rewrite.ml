(* The GVN engine's window onto the shared rewrite-rule table (lib/rules).

   The driver consults the same compiled catalog as every other client, but
   through a *deep* subject that sees through congruence: a [Value] atom is
   viewed as the operator of its class's defining expression (children
   refreshed to their current class leaders), so patterns like
   [~x & ~y -> ~(x|y)] or [(x shl A) shl B] match across instruction
   boundaries, up to congruence rather than up to syntax. Compound
   right-hand-side nodes are reduced back to atoms through the TABLE — a
   rewrite only fires when every intermediate expression already has a
   congruence class, which keeps symbolic evaluation inside the paper's
   atom language.

   Add/Sub/Mul/Neg on the RHS are built with the sum-of-products term
   algebra, so a rule like [x shl A -> x * 2^(A land 62)] feeds shifts
   into the same canonical form as every other multiply. *)

open State

(* A TABLE probe: the class id lives in the consed cell's scratch slot, so
   a probe is a single field read, counted for the bench harness. *)
let table_find st (e : Hexpr.t) =
  st.stats.Run_stats.table_probes <- st.stats.Run_stats.table_probes + 1;
  let cid = Util.Hashcons.slot e in
  if cid >= 0 then begin
    st.stats.Run_stats.table_hits <- st.stats.Run_stats.table_hits + 1;
    Some cid
  end
  else None

(* Reduce a combined expression back to an atom: directly, or through the
   congruence class already holding that expression. *)
let atom_of_expr st (e : Hexpr.t) : Hexpr.t option =
  match Hexpr.node e with
  | Hexpr.Const _ | Hexpr.Value _ -> Some e
  | _ -> (
      match table_find st e with
      | Some cid -> (
          match (cls st cid).leader with
          | Lconst n -> Some (Hexpr.const st.arena n)
          | Lvalue l -> Some (Hexpr.value st.arena l)
          | Lundef -> None)
      | None -> None)

let rank_fn st v = st.rank.(v)

(* The current class-leader atom standing for [a] (identity for constants
   and for values whose class is still ⊥). *)
let refresh st a =
  match Hexpr.node a with
  | Hexpr.Value v -> ( match leader_atom st v with Some l -> l | None -> a)
  | _ -> a

let make_subject (st : State.t) : Hexpr.t Rules.Engine.subject =
  let arena = st.arena in
  let rank = rank_fn st in
  {
    Rules.Engine.view =
      (fun x ->
        match Hexpr.node x with
        | Hexpr.Const n -> Rules.Engine.Sconst n
        | Hexpr.Value v -> (
            (* the defining expression of x's congruence class, one
               operator deep, operands refreshed to current leaders *)
            match (cls st st.class_of.(v)).expr with
            | Some e -> (
                match Hexpr.node e with
                | Hexpr.Op (Hexpr.Ubop op, [ p; q ]) ->
                    Rules.Engine.Sbinop (op, refresh st p, refresh st q)
                | Hexpr.Op (Hexpr.Uuop op, [ p ]) -> Rules.Engine.Sunop (op, refresh st p)
                | _ -> Rules.Engine.Satom)
            | None -> Rules.Engine.Satom)
        | _ -> Rules.Engine.Satom);
    equal = Hexpr.equal;
    bconst = Hexpr.const arena;
    bunop =
      (fun op x ->
        match (op, Hexpr.node x) with
        | _, Hexpr.Const p -> Some (Hexpr.const arena (Ir.Types.eval_unop op p))
        | Ir.Types.Neg, _ ->
            Some (Hexpr.of_terms arena (Hexpr.negate_terms (Hexpr.terms_of_atom x)))
        | _ -> Some (Hexpr.make_op arena rank (Hexpr.Uuop op) [ x ]));
    bbinop =
      (fun op x y ->
        match (Hexpr.node x, Hexpr.node y) with
        | Hexpr.Const p, Hexpr.Const q ->
            Option.map (Hexpr.const arena) (Ir.Types.fold_binop op p q)
        | _ -> (
            match op with
            | Ir.Types.Add ->
                Some
                  (Hexpr.of_terms arena
                     (Hexpr.merge_terms rank (Hexpr.terms_of_atom x) (Hexpr.terms_of_atom y)))
            | Ir.Types.Sub ->
                Some
                  (Hexpr.of_terms arena
                     (Hexpr.merge_terms rank (Hexpr.terms_of_atom x)
                        (Hexpr.negate_terms (Hexpr.terms_of_atom y))))
            | Ir.Types.Mul ->
                Some
                  (Hexpr.of_terms arena
                     (Hexpr.mul_terms rank (Hexpr.terms_of_atom x) (Hexpr.terms_of_atom y)))
            | _ -> Some (Hexpr.make_op arena rank (Hexpr.Ubop op) [ x; y ])));
    reduce = (fun e -> atom_of_expr st e);
    fired = Run_stats.count_fire st.stats;
  }

let subject_of st =
  match st.rules_subject with
  | Some s -> s
  | None ->
      let s = make_subject st in
      st.rules_subject <- Some s;
      s

(* ---------------- the driver's simplification entry points ---------------- *)

(* With the catalog disabled (Config.rules = false) simplification degrades
   to trap-refusing constant folding plus commutative canonicalization. *)

let binop_atoms (st : State.t) (op : Ir.Types.binop) x y =
  let fallback () =
    match (Hexpr.node x, Hexpr.node y) with
    | Hexpr.Const p, Hexpr.Const q -> (
        match Ir.Types.fold_binop op p q with
        | Some c -> Hexpr.const st.arena c
        | None -> Hexpr.make_op st.arena (rank_fn st) (Hexpr.Ubop op) [ x; y ])
    | _ -> Hexpr.make_op st.arena (rank_fn st) (Hexpr.Ubop op) [ x; y ]
  in
  if st.config.Config.rules then
    match Rules.Engine.rewrite_binop Rules.Engine.shared (subject_of st) op x y with
    | Some r -> r
    | None -> fallback ()
  else fallback ()

let unop_atom (st : State.t) (op : Ir.Types.unop) x =
  match (op, Hexpr.node x) with
  | Ir.Types.Lnot, Hexpr.Cmp (c, u, v) -> Hexpr.cmp_ st.arena (Ir.Types.negate_cmp c) u v
  | _ -> (
      let fallback () =
        match Hexpr.node x with
        | Hexpr.Const p -> Hexpr.const st.arena (Ir.Types.eval_unop op p)
        | _ -> Hexpr.make_op st.arena (rank_fn st) (Hexpr.Uuop op) [ x ]
      in
      if st.config.Config.rules then
        match Rules.Engine.rewrite_unop Rules.Engine.shared (subject_of st) op x with
        | Some r -> r
        | None -> fallback ()
      else fallback ())
