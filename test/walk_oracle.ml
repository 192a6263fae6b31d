(* The reference dominating-edge walks of Figure 7, as the engine ran them
   before it kept per-block and per-class counts: each step scans the
   block's predecessors for its sole reachable in-edge, every query the §3
   filters let through walks to the top or to its deciding fact, and each
   polarity of a branch gets its own walk. They read a finished
   [Pgvn.State.t] and share none of the engine's walk code, so the tests
   can hold the engine's answers to them. The multi-fact fallback of
   [Config.pred_closure] is not modelled. *)

open Pgvn.State

let idom_of st b =
  match st.config.Pgvn.Config.variant with
  | Pgvn.Config.Complete -> Analysis.Inc_dom.idom st.inc_dom b
  | Pgvn.Config.Practical -> (Pgvn.State.dom st).Analysis.Dom.idom.(b)

type step = Up of int | Via of int | Stop

let sole_reachable_in_edge st b =
  match List.filter (fun e -> st.reach_edge.(e)) (Array.to_list (Ir.Func.block st.f b).Ir.Func.preds) with
  | [ e ] -> Some e
  | _ -> None

let walk_step st b =
  let back_in = Array.exists (fun e -> st.backward.(e)) (Ir.Func.block st.f b).Ir.Func.preds in
  if st.config.Pgvn.Config.mode <> Pgvn.Config.Optimistic && back_in then Up (idom_of st b)
  else
    match sole_reachable_in_edge st b with
    | None -> Up (idom_of st b)
    | Some e ->
        if st.config.Pgvn.Config.variant = Pgvn.Config.Practical && st.backward.(e) then Stop
        else Via e

let atoms_congruent st a b =
  let leader v = (cls st st.class_of.(v)).leader in
  match (Pgvn.Hexpr.node a, Pgvn.Hexpr.node b) with
  | Pgvn.Hexpr.Const x, Pgvn.Hexpr.Const y -> x = y
  | Pgvn.Hexpr.Const x, Pgvn.Hexpr.Value v | Pgvn.Hexpr.Value v, Pgvn.Hexpr.Const x ->
      leader v = Lconst x
  | Pgvn.Hexpr.Value x, Pgvn.Hexpr.Value y -> (
      st.class_of.(x) = st.class_of.(y)
      || match (leader x, leader y) with Lconst nx, Lconst ny -> nx = ny | _ -> false)
  | _ -> false

let const_atom x = match Pgvn.Hexpr.node x with Pgvn.Hexpr.Const n -> Some n | _ -> None

let equality_rewrite st e v =
  match Option.map Pgvn.Hexpr.node st.pred_edge.(e) with
  | Some (Pgvn.Hexpr.Cmp (Ir.Types.Eq, x, y)) -> (
      match Pgvn.Hexpr.node y with
      | Pgvn.Hexpr.Value w when st.class_of.(w) = st.class_of.(v) -> Some x
      | _ -> None)
  | _ -> None

let src st e = (Ir.Func.edge st.f e).Ir.Func.src

(* Infer value at block: rewrite through equality predicates, restarting
   after each rewrite and stopping at the block that induced it. *)
let infer_value_at_block st b0 atom =
  match Pgvn.Hexpr.node atom with
  | Pgvn.Hexpr.Value v0
    when st.config.Pgvn.Config.value_inference && (cls st st.class_of.(v0)).eq_operands > 0 ->
      let rec walk v last b =
        if b < 0 || b = last then `Done v
        else
          match walk_step st b with
          | Stop -> `Done v
          | Up next -> walk v last next
          | Via e -> (
              match Option.map Pgvn.Hexpr.node (equality_rewrite st e v) with
              | Some (Pgvn.Hexpr.Value xv) -> `Restart (xv, b)
              | Some (Pgvn.Hexpr.Const _) -> `Const (Option.get (equality_rewrite st e v))
              | _ -> walk v last (src st e))
      in
      let rec go v last =
        match walk v last b0 with
        | `Restart (xv, b) -> go xv b
        | `Const c -> c
        | `Done v -> (
            match leader_atom st v with Some a -> a | None -> Pgvn.Hexpr.value st.arena v)
      in
      go v0 (-1)
  | _ -> atom

let eval_operand st b v = Option.map (infer_value_at_block st b) (leader_atom st v)

(* A decided claim as the engine records it, when both query operands are
   atoms. *)
let claim ~block ~edge ~op a b verdict =
  let atom x =
    match Pgvn.Hexpr.node x with
    | Pgvn.Hexpr.Const k -> Some (Pgvn.Run_stats.Aconst k)
    | Pgvn.Hexpr.Value v -> Some (Pgvn.Run_stats.Avalue v)
    | _ -> None
  in
  match (atom a, atom b) with
  | Some a, Some b -> [ { Pgvn.Run_stats.block; by = Edge edge; op; a; b; verdict } ]
  | _ -> []

(* Infer value of predicate, one query per walk: the result and the claim
   it records. *)
let infer_predicate st b0 p =
  let matchable x =
    match Pgvn.Hexpr.node x with
    | Pgvn.Hexpr.Const _ -> true
    | Pgvn.Hexpr.Value v ->
        let c = cls st st.class_of.(v) in
        c.cmp_operands > 0 || (match c.leader with Lconst _ -> true | _ -> false)
    | _ -> false
  in
  match Pgvn.Hexpr.node p with
  | Pgvn.Hexpr.Cmp (qop, qa, qb)
    when st.config.Pgvn.Config.predicate_inference && (matchable qa || matchable qb) ->
      let rec walk b =
        if b < 0 then (p, [])
        else
          match walk_step st b with
          | Stop -> (p, [])
          | Up next -> walk next
          | Via e -> (
              match Option.map Pgvn.Hexpr.node st.pred_edge.(e) with
              | Some (Pgvn.Hexpr.Cmp (fop, fa, fb)) -> (
                  match
                    Pgvn.Infer.decide ~same:(atoms_congruent st) ~const:const_atom ~fop ~fa ~fb
                      ~qop ~qa ~qb
                  with
                  | Pgvn.Infer.True ->
                      (Pgvn.Hexpr.const st.arena 1, claim ~block:b0 ~edge:e ~op:qop qa qb true)
                  | Pgvn.Infer.False ->
                      (Pgvn.Hexpr.const st.arena 0, claim ~block:b0 ~edge:e ~op:qop qa qb false)
                  | Pgvn.Infer.Unknown -> walk (src st e))
              | _ -> walk (src st e))
      in
      walk b0
  | _ -> (p, [])

(* One edge of a branch on [cond_atom] at block [b]: the canonical
   predicate, re-evaluated over current leaders, then inferred; and the
   claims inferring it recorded. *)
let edge_predicate st b cond_atom ~is_true =
  let rank v = st.rank.(v) in
  match Option.map Pgvn.Hexpr.node cond_atom with
  | Some (Pgvn.Hexpr.Value v) -> (
      let a = Option.get cond_atom in
      let base =
        match Option.map Pgvn.Hexpr.node (cls st st.class_of.(v)).expr with
        | Some (Pgvn.Hexpr.Cmp (op, x, y)) ->
            let refresh u =
              match Pgvn.Hexpr.node u with
              | Pgvn.Hexpr.Value w -> Option.value (eval_operand st b w) ~default:u
              | _ -> u
            in
            Pgvn.Hexpr.cmp_atoms st.arena rank op (refresh x) (refresh y)
        | _ -> Pgvn.Hexpr.cmp_atoms st.arena rank Ir.Types.Ne (Pgvn.Hexpr.const st.arena 0) a
      in
      match Pgvn.Hexpr.node base with
      | Pgvn.Hexpr.Cmp _ -> (
          let p = if is_true then base else Pgvn.Hexpr.negate_pred st.arena base in
          let p, claims = infer_predicate st b p in
          match Pgvn.Hexpr.node p with Pgvn.Hexpr.Const _ -> (None, claims) | _ -> (Some p, claims))
      | _ -> (None, []))
  | _ -> (None, [])

(* Both edges of the branch, and their claims in the order recorded. *)
let branch_predicates st b cond_atom =
  let pt, ct = edge_predicate st b cond_atom ~is_true:true in
  let pf, cf = edge_predicate st b cond_atom ~is_true:false in
  ((pt, pf), ct @ cf)
