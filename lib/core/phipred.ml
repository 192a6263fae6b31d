(* φ-predication (paper §2.8, Figure 8): the predicate of a block B with
   reachable incoming edges E1, E2, ... is P1 ∨ P2 ∨ ..., where Pi holds
   exactly when control reaches B from its immediate dominator D along Ei.
   It is computed by traversing every reachable path from D to B (B must
   postdominate D; back edges abort the computation), accumulating partial
   predicates, and recording the canonical order of B's incoming edges.

   Two φ-functions in different blocks become congruent when their blocks'
   predicates are congruent, which is what enables congruence finding across
   structurally different but logically identical conditionals.

   Predicates are hash-consed {!Hexpr} cells: {!Hexpr.pand}/{!Hexpr.por}
   flatten, sort and deduplicate at construction, so path conditions built
   through different traversal shapes land on the same cell and the
   congruence comparison is a pointer test. *)

exception Aborted

type ctx = {
  st : State.t;
  b0 : int; (* the block whose predicate is being computed *)
  d0 : int; (* its immediate dominator *)
  mutable initialized : int list; (* blocks with a live OR accumulator,
                                     kept only to clear [pp_init] at exit *)
  mutable canonical_rev : int list; (* B0's incoming edges, reverse order *)
}

let reachable_out_count st b =
  Array.fold_left
    (fun n e -> if st.State.reach_edge.(e) then n + 1 else n)
    0
    (Ir.Func.block st.State.f b).Ir.Func.succs

(* Outgoing edges in canonical order (§2.8): for a conditional jump, the
   edge whose canonical predicate operator is =, < or ≤ goes first. *)
let canonical_out_edges st b =
  let succs = (Ir.Func.block st.State.f b).Ir.Func.succs in
  if Array.length succs <> 2 then Array.to_list succs
  else
    let classify e =
      match st.State.pred_edge.(e) with
      | Some p -> (
          match Hexpr.node p with
          | Hexpr.Cmp ((Ir.Types.Eq | Ir.Types.Lt | Ir.Types.Le), _, _) -> 0
          | _ -> 1)
      | None -> 1
    in
    let a = succs.(0) and b' = succs.(1) in
    if classify a <= classify b' then [ a; b' ] else [ b'; a ]

(* Conjunction: [Hexpr.pand] flattens nested conjunctions, sorts and
   deduplicates, so equal path conditions built through different traversal
   shapes are the same cell. *)
let conj st p q =
  match (p, q) with
  | None, x | x, None -> x
  | Some p, Some q -> Some (Hexpr.pand st.State.arena [ p; q ])

let rec partial ctx b (pp : Hexpr.t option) ~ignore_incoming =
  let st = ctx.st in
  st.State.stats.Run_stats.phi_predication_visits <-
    st.State.stats.Run_stats.phi_predication_visits + 1;
  let n_in = st.State.in_reachable.(b) in
  if ignore_incoming || n_in < 2 then st.State.partial_pred.(b) <- pp
  else begin
    if not st.State.pp_init.(b) then begin
      st.State.pp_init.(b) <- true;
      ctx.initialized <- b :: ctx.initialized;
      st.State.partial_ops.(b) <- [];
      st.State.partial_count.(b) <- 0;
      st.State.partial_pred.(b) <- None
    end;
    (* Accumulate this path's predicate as the next OR operand. An unknown
       (empty) path predicate makes the disjunction unusable. *)
    (match pp with
    | Some p -> st.State.partial_ops.(b) <- p :: st.State.partial_ops.(b)
    | None -> raise Aborted);
    st.State.partial_count.(b) <- st.State.partial_count.(b) + 1;
    if st.State.partial_count.(b) < n_in then raise_notrace Exit;
    (* Final arrival: the disjunction is complete; build its canonical cell
       (order-insensitive, so the accumulation order does not matter). *)
    st.State.partial_pred.(b) <-
      Some (Hexpr.por st.State.arena st.State.partial_ops.(b))
  end;
  if b <> ctx.b0 then begin
    (* Diamond shortcut: when [b] dominates its immediate postdominator,
       the interior cannot affect B0's predicate. *)
    let d = Analysis.Postdom.ipdom (State.pdom st) b in
    if d >= 0 && d <> ctx.b0 && Analysis.Dom.dominates (State.dom st) b d then
      descend ctx d st.State.partial_pred.(b) ~ignore_incoming:true
    else begin
      let n_out = reachable_out_count st b in
      List.iter
        (fun e ->
          if st.State.reach_edge.(e) then begin
            if st.State.backward.(e) then raise Aborted;
            let ep =
              if n_out = 1 then st.State.partial_pred.(b)
              else
                match st.State.pred_edge.(e) with
                | None -> raise Aborted (* conditional edge with unknown predicate *)
                | Some p -> conj st st.State.partial_pred.(b) (Some p)
            in
            let dst = (Ir.Func.edge st.State.f e).Ir.Func.dst in
            descend ctx dst ep ~ignore_incoming:false;
            if dst = ctx.b0 then ctx.canonical_rev <- e :: ctx.canonical_rev
          end)
        (canonical_out_edges st b)
    end
  end

and descend ctx b pp ~ignore_incoming =
  match partial ctx b pp ~ignore_incoming with () -> () | exception Exit -> ()

(* Figure 8, Compute predicate of block. Returns [true] when PREDICATE[B0]
   changed (the caller then touches B0's φ-instructions). *)
let compute_block_predicate (st : State.t) b0 =
  let d0 =
    match st.State.config.Config.variant with
    | Config.Complete -> Analysis.Inc_dom.idom st.State.inc_dom b0
    | Config.Practical -> (State.dom st).Analysis.Dom.idom.(b0)
  in
  if d0 < 0 then false
  else if not (Analysis.Postdom.postdominates (State.pdom st) b0 d0) then false
  else begin
    let ctx = { st; b0; d0; initialized = []; canonical_rev = [] } in
    let result =
      match descend ctx d0 None ~ignore_incoming:true with
      | () -> (
          (* The traversal is complete only if it reached B0 at all and, at
             a join, every reachable incoming edge contributed an OR
             operand. (The canonical-edge and initialization guards keep a
             stale accumulator from a previous computation from leaking.) *)
          let n_in = st.State.in_reachable.(b0) in
          if ctx.canonical_rev = [] then None
          else if n_in >= 2 then
            if st.State.pp_init.(b0) && st.State.partial_count.(b0) = n_in
            then
              match st.State.partial_pred.(b0) with
              | Some p -> Some (p, List.rev ctx.canonical_rev)
              | None -> None
            else None
          else
            match st.State.partial_pred.(b0) with
            | Some p when n_in = 1 -> Some (p, List.rev ctx.canonical_rev)
            | _ -> None)
      | exception Aborted -> None
    in
    (* Reset the bitset for the next computation; only blocks on the
       initialized list were touched. *)
    List.iter (fun b -> st.State.pp_init.(b) <- false) ctx.initialized;
    match result with
    | Some (pred, canonical) ->
        st.State.canonical.(b0) <- Array.of_list canonical;
        if
          not
            (Option.fold ~none:false ~some:(Hexpr.equal pred)
               st.State.pred_block.(b0))
        then begin
          st.State.pred_block.(b0) <- Some pred;
          true
        end
        else false
    | None ->
        st.State.canonical.(b0) <- [||];
        if st.State.pred_block.(b0) <> None then begin
          st.State.pred_block.(b0) <- None;
          true
        end
        else false
  end
