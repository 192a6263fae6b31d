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

(* The traversal's scratch lives in the run's State: per-block partial
   predicates ([Hexpr.bot] for none), the OR accumulators, and the two
   stacks that replace per-call lists. *)

(* A conditional edge's place in canonical order (§2.8): the edge whose
   canonical predicate operator is =, < or ≤ goes first. *)
let classify st e =
  match st.State.pred_edge.(e) with
  | Some p -> (
      match Hexpr.node p with
      | Hexpr.Cmp ((Ir.Types.Eq | Ir.Types.Lt | Ir.Types.Le), _, _) -> 0
      | _ -> 1)
  | None -> 1

(* Conjunction: [Hexpr.pand2] flattens nested conjunctions, sorts and
   deduplicates, so equal path conditions built through different traversal
   shapes are the same cell. *)
let conj st p q = if Hexpr.is_bot p then q else Hexpr.pand2 st.State.arena p q

let rec partial st b0 b pp ~ignore_incoming =
  st.State.stats.Run_stats.phi_predication_visits <-
    st.State.stats.Run_stats.phi_predication_visits + 1;
  let n_in = st.State.in_reachable.(b) in
  if ignore_incoming || n_in < 2 then st.State.partial_pred.(b) <- pp
  else begin
    if not st.State.pp_init.(b) then begin
      st.State.pp_init.(b) <- true;
      Util.Vec.push st.State.pp_initialized b;
      st.State.partial_ops.(b) <- [];
      st.State.partial_count.(b) <- 0;
      st.State.partial_pred.(b) <- Hexpr.bot
    end;
    (* Accumulate this path's predicate as the next OR operand. An unknown
       (empty) path predicate makes the disjunction unusable. *)
    if Hexpr.is_bot pp then raise Aborted;
    st.State.partial_ops.(b) <- pp :: st.State.partial_ops.(b);
    st.State.partial_count.(b) <- st.State.partial_count.(b) + 1;
    if st.State.partial_count.(b) < n_in then raise_notrace Exit;
    (* Final arrival: the disjunction is complete; build its canonical cell
       (order-insensitive, so the accumulation order does not matter). *)
    st.State.partial_pred.(b) <- Hexpr.por st.State.arena st.State.partial_ops.(b)
  end;
  if b <> b0 then begin
    (* Diamond shortcut: when [b] dominates its immediate postdominator,
       the interior cannot affect B0's predicate. *)
    let d = Analysis.Postdom.ipdom (State.pdom st) b in
    if d >= 0 && d <> b0 && Analysis.Dom.dominates (State.dom st) b d then
      descend st b0 d st.State.partial_pred.(b) ~ignore_incoming:true
    else begin
      let succs = (Ir.Func.block st.State.f b).Ir.Func.succs in
      let n_out = Array.length succs in
      let n_reach = ref 0 in
      for k = 0 to n_out - 1 do
        if st.State.reach_edge.(succs.(k)) then incr n_reach
      done;
      (* Outgoing edges in canonical order. *)
      if n_out = 2 && classify st succs.(0) > classify st succs.(1) then begin
        out_edge st b0 b !n_reach succs.(1);
        out_edge st b0 b !n_reach succs.(0)
      end
      else
        for k = 0 to n_out - 1 do
          out_edge st b0 b !n_reach succs.(k)
        done
    end
  end

and out_edge st b0 b n_reach e =
  if st.State.reach_edge.(e) then begin
    if st.State.backward.(e) then raise Aborted;
    let ep =
      if n_reach = 1 then st.State.partial_pred.(b)
      else
        match st.State.pred_edge.(e) with
        | None -> raise Aborted (* conditional edge with unknown predicate *)
        | Some p -> conj st st.State.partial_pred.(b) p
    in
    let dst = (Ir.Func.edge st.State.f e).Ir.Func.dst in
    descend st b0 dst ep ~ignore_incoming:false;
    if dst = b0 then Util.Vec.push st.State.pp_canonical e
  end

and descend st b0 b pp ~ignore_incoming =
  match partial st b0 b pp ~ignore_incoming with () -> () | exception Exit -> ()

(* Whether [a] holds exactly the edges on the [pp_canonical] stack. *)
let same_edges st a =
  let v = st.State.pp_canonical in
  Array.length a = Util.Vec.length v
  &&
  let k = ref 0 in
  while !k < Array.length a && a.(!k) = Util.Vec.get v !k do
    incr k
  done;
  !k = Array.length a

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
    Util.Vec.clear st.State.pp_initialized;
    Util.Vec.clear st.State.pp_canonical;
    let pred =
      match descend st b0 d0 Hexpr.bot ~ignore_incoming:true with
      | () ->
          (* The traversal is complete only if it reached B0 at all and, at
             a join, every reachable incoming edge contributed an OR
             operand. (The canonical-edge and initialization guards keep a
             stale accumulator from a previous computation from leaking.) *)
          let n_in = st.State.in_reachable.(b0) in
          if Util.Vec.is_empty st.State.pp_canonical then Hexpr.bot
          else if n_in >= 2 then
            if st.State.pp_init.(b0) && st.State.partial_count.(b0) = n_in then
              st.State.partial_pred.(b0)
            else Hexpr.bot
          else if n_in = 1 then st.State.partial_pred.(b0)
          else Hexpr.bot
      | exception Aborted -> Hexpr.bot
    in
    (* Reset the bitset for the next computation; only blocks on the
       initialized stack were touched. *)
    for k = 0 to Util.Vec.length st.State.pp_initialized - 1 do
      st.State.pp_init.(Util.Vec.get st.State.pp_initialized k) <- false
    done;
    if not (Hexpr.is_bot pred) then begin
      if not (same_edges st st.State.canonical.(b0)) then
        st.State.canonical.(b0) <- Util.Vec.to_array st.State.pp_canonical;
      match st.State.pred_block.(b0) with
      | Some p when p == pred -> false
      | _ ->
          st.State.pred_block.(b0) <- Some pred;
          true
    end
    else begin
      st.State.canonical.(b0) <- [||];
      match st.State.pred_block.(b0) with
      | None -> false
      | Some _ ->
          st.State.pred_block.(b0) <- None;
          true
    end
  end
