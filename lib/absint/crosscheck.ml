(* The static GVN cross-checker: replay a finished run's claims against
   independently computed interval facts — a third correctness engine
   beside [Validate.Audit] (witness replay + concrete refutation) and
   [Validate.Equiv] (behavioral diffing), and the only one that needs no
   interpreter run: a wrong claim is refuted by abstract semantics alone.

   Claims checked, all on the *input* function the engine analyzed:

   - decided branches: a reachable block whose conditional terminator has a
     pruned out-edge claims the condition avoids that edge on every
     execution; refuted when the interval facts prove the condition takes
     exactly the pruned side.
   - predicate inferences: every True/False verdict [Infer.decide] issued
     (recorded in [Run_stats.inferences]) claims a comparison's truth at a
     block; refuted when [Itv.cmp_verdict] proves the opposite.
   - closure inferences: verdicts of the multi-fact implication closure
     (lib/pred, recorded in [Run_stats.pred_inferences]) are replayed the
     same way ("pred-vs-interval"), and additionally checked for conflicts
     against single-fact verdicts for the identical query at the identical
     block ("pred-vs-infer") — the two deciders over-approximate the same
     concrete truth, so opposite answers mean one of them lied.
   - φ block predicates: [Phipred]'s Figure 8 predicates claim to hold
     whenever control is at their block; refuted when abstract evaluation
     proves one definitely false at an executable block.
   - constants: a class with constant leader [k] claims every member
     evaluates to [k]; refuted when a member's interval excludes [k].

   Soundness discipline of the replay: both sides over-approximate, so a
   claim is flagged only when the interval semantics *definitely* refutes
   it — never on mere disagreement of precision. Claims are skipped at
   blocks the interval analysis already proved unexecutable (or that a
   dominating [x = y] edge proves dead with disjoint intervals), when a refined
   environment is bottom (the conjunction of dominating guards is already
   absurd, so the claim is vacuous), and when an operand's definition does
   not dominate the claim site (its interval does not constrain the
   hypothetical class value there). *)

type site = Sblock of int | Svalue of int

type contradiction = {
  site : site;
  claim : string;  (** what the engine asserted *)
  refutation : string;  (** the interval fact contradicting it *)
}

type report = {
  branches_checked : int;
  inferences_checked : int;
  pred_checked : int;
      (** closure-decided queries replayed against interval facts *)
  phi_preds_checked : int;
  constants_checked : int;
  precision_wins : int;
      (** edges the engine kept reachable but the interval analysis proves
          dead — informational, not an error in either direction *)
  contradictions : contradiction list;
}

let ok r = r.contradictions = []

let pp_site ppf = function
  | Sblock b -> Fmt.pf ppf "b%d" b
  | Svalue v -> Fmt.pf ppf "v%d" v

let pp_contradiction ppf c =
  Fmt.pf ppf "at %a: engine claims %s, but %s" pp_site c.site c.claim c.refutation

let pp_report ppf r =
  Fmt.pf ppf
    "crosscheck: %d branch / %d inference / %d closure / %d phi-pred / %d constant claims checked; %d contradiction(s); %d precision win(s)"
    r.branches_checked r.inferences_checked r.pred_checked r.phi_preds_checked
    r.constants_checked
    (List.length r.contradictions) r.precision_wins;
  List.iter (fun c -> Fmt.pf ppf "@.  %a" pp_contradiction c) r.contradictions

let itv_str d = Fmt.str "%a" Itv.pp d

let run ?ranges (st : Pgvn.State.t) : report =
  let f = st.Pgvn.State.f in
  let res = match ranges with Some r -> r | None -> Ranges.run f in
  let dom = Analysis.Dom.compute (Analysis.Graph.of_func f) in
  let contras = ref [] in
  let flag site claim refutation =
    contras := { site; claim; refutation } :: !contras
  in
  let env b v = Ranges.env_at res b v in
  (* The interval refinement only knows value-versus-constant guards, but
     the engine's value inference also uses a dominating [x = y] edge. When
     the two intervals are disjoint at [b], that edge proves [b] dead, and
     any claim there is vacuous: the engine may soundly derive facts the
     intervals exclude. *)
  let equated e =
    let edge = Ir.Func.edge f e in
    match Ir.Func.instr f (Ir.Func.terminator_of_block f edge.Ir.Func.src) with
    | Ir.Func.Branch c -> (
        match (Ir.Func.instr f c, edge.Ir.Func.src_ix) with
        | Ir.Func.Cmp (Ir.Types.Eq, x, y), 0 | Ir.Func.Cmp (Ir.Types.Ne, x, y), 1 -> Some (x, y)
        | _ -> None)
    | _ -> None
  in
  let rec dead_by_equality b d =
    d >= 0
    && ((match (Ir.Func.block f d).Ir.Func.preds with
        | [| e |] -> (
            match equated e with
            | Some (x, y) -> Itv.is_bottom (Itv.meet (env b x) (env b y))
            | None -> false)
        | _ -> false)
       || dead_by_equality b dom.Analysis.Dom.idom.(d))
  in
  let live =
    Array.init (Ir.Func.num_blocks f) (fun b ->
        res.Ranges.block_exec.(b) && not (dead_by_equality b b))
  in
  let live b = live.(b) in

  (* --- decided branches ------------------------------------------------ *)
  let branches_checked = ref 0 in
  let check_branch (db : Pgvn.Driver.decided_branch) =
    let b = db.Pgvn.Driver.db_block in
    if live b then begin
      let cond = env b db.Pgvn.Driver.db_cond in
      if not (Itv.is_bottom cond) then begin
        incr branches_checked;
        let cond_s = Fmt.str "v%d" db.Pgvn.Driver.db_cond in
        (match db.Pgvn.Driver.db_const with
        | Some k when not (Itv.may_equal cond k) ->
            flag (Sblock b)
              (Fmt.str "%s is the constant %d" cond_s k)
              (Fmt.str "%s ∈ %s excludes %d" cond_s (itv_str cond) k)
        | _ -> ());
        let term = Ir.Func.instr f (Ir.Func.terminator_of_block f b) in
        List.iter
          (fun e ->
            let ix = (Ir.Func.edge f e).Ir.Func.src_ix in
            match term with
            | Ir.Func.Branch _ ->
                if ix = 0 then begin
                  (* true edge pruned: the condition is claimed always 0 *)
                  if not (Itv.may_equal cond 0) then
                    flag (Sblock b)
                      (Fmt.str "%s is always 0 (true edge pruned)" cond_s)
                      (Fmt.str "%s ∈ %s excludes 0" cond_s (itv_str cond))
                end
                else if Itv.is_const cond = Some 0 then
                  flag (Sblock b)
                    (Fmt.str "%s is never 0 (false edge pruned)" cond_s)
                    (Fmt.str "%s is exactly 0" cond_s)
            | Ir.Func.Switch (_, cases) ->
                if ix < Array.length cases then begin
                  if Itv.is_const cond = Some cases.(ix) then
                    flag (Sblock b)
                      (Fmt.str "%s never equals case %d (edge pruned)" cond_s cases.(ix))
                      (Fmt.str "%s is exactly %d" cond_s cases.(ix))
                end
                else if Array.for_all (fun k -> not (Itv.may_equal cond k)) cases then
                  flag (Sblock b)
                    (Fmt.str "%s always matches a case (default pruned)" cond_s)
                    (Fmt.str "%s ∈ %s excludes every case" cond_s (itv_str cond))
            | _ -> ())
          db.Pgvn.Driver.db_pruned
      end
    end
  in
  List.iter check_branch (Pgvn.Driver.decided_branches st);

  (* --- recorded predicate inferences ----------------------------------- *)
  let inferences_checked = ref 0 in
  let atom_itv b = function
    | Pgvn.Run_stats.Aconst k -> Some (Itv.const k)
    | Pgvn.Run_stats.Avalue v ->
        (* The leader's interval only constrains the class's value at [b]
           when its definition is guaranteed computed there. *)
        if Analysis.Dom.dominates dom (Ir.Func.block_of_instr f v) b then Some (env b v)
        else None
  in
  let atom_str = function
    | Pgvn.Run_stats.Aconst k -> string_of_int k
    | Pgvn.Run_stats.Avalue v -> Fmt.str "v%d" v
  in
  let check_inference (inf : Pgvn.Run_stats.inference) =
    let b = inf.Pgvn.Run_stats.inf_block in
    if live b then
      match (atom_itv b inf.Pgvn.Run_stats.inf_a, atom_itv b inf.Pgvn.Run_stats.inf_b) with
      | Some ia, Some ib when not (Itv.is_bottom ia || Itv.is_bottom ib) -> (
          incr inferences_checked;
          let verdict = inf.Pgvn.Run_stats.inf_verdict in
          match Itv.cmp_verdict inf.Pgvn.Run_stats.inf_op ia ib with
          | Some v when v <> verdict ->
              flag (Sblock b)
                (Fmt.str "%s %s %s is %b (from the predicate of edge e%d)"
                   (atom_str inf.Pgvn.Run_stats.inf_a)
                   (Ir.Types.string_of_cmp inf.Pgvn.Run_stats.inf_op)
                   (atom_str inf.Pgvn.Run_stats.inf_b)
                   verdict inf.Pgvn.Run_stats.inf_edge)
                (Fmt.str "intervals %s and %s prove it %b" (itv_str ia) (itv_str ib)
                   (not verdict))
          | _ -> ())
      | _ -> ()
  in
  List.iter check_inference st.Pgvn.State.stats.Pgvn.Run_stats.inferences;

  (* --- closure-decided predicate inferences ------------------------------ *)
  (* Same replay discipline as single-fact inferences. Contradictions carry
     pinned ids: "pred-vs-interval" for an interval refutation,
     "pred-vs-infer" for a verdict conflicting with a single-fact claim on
     the identical query at the identical block. *)
  let pred_checked = ref 0 in
  let check_pred_inference (pi : Pgvn.Run_stats.pred_inference) =
    let b = pi.Pgvn.Run_stats.pinf_block in
    if live b then begin
      let verdict = pi.Pgvn.Run_stats.pinf_verdict in
      let query_s =
        Fmt.str "%s %s %s"
          (atom_str pi.Pgvn.Run_stats.pinf_a)
          (Ir.Types.string_of_cmp pi.Pgvn.Run_stats.pinf_op)
          (atom_str pi.Pgvn.Run_stats.pinf_b)
      in
      (match (atom_itv b pi.Pgvn.Run_stats.pinf_a, atom_itv b pi.Pgvn.Run_stats.pinf_b) with
      | Some ia, Some ib when not (Itv.is_bottom ia || Itv.is_bottom ib) -> (
          incr pred_checked;
          match Itv.cmp_verdict pi.Pgvn.Run_stats.pinf_op ia ib with
          | Some v when v <> verdict ->
              flag (Sblock b)
                (Fmt.str "%s is %b (multi-fact closure)" query_s verdict)
                (Fmt.str "[pred-vs-interval] intervals %s and %s prove it %b" (itv_str ia)
                   (itv_str ib) (not verdict))
          | _ -> ())
      | _ -> ());
      List.iter
        (fun (inf : Pgvn.Run_stats.inference) ->
          if
            inf.Pgvn.Run_stats.inf_block = b
            && inf.Pgvn.Run_stats.inf_op = pi.Pgvn.Run_stats.pinf_op
            && inf.Pgvn.Run_stats.inf_a = pi.Pgvn.Run_stats.pinf_a
            && inf.Pgvn.Run_stats.inf_b = pi.Pgvn.Run_stats.pinf_b
            && inf.Pgvn.Run_stats.inf_verdict <> verdict
          then
            flag (Sblock b)
              (Fmt.str "%s is %b (multi-fact closure)" query_s verdict)
              (Fmt.str "[pred-vs-infer] the single-fact walk decided it %b via edge e%d"
                 (not verdict) inf.Pgvn.Run_stats.inf_edge))
        st.Pgvn.State.stats.Pgvn.Run_stats.inferences
    end
  in
  List.iter check_pred_inference st.Pgvn.State.stats.Pgvn.Run_stats.pred_inferences;

  (* --- φ block predicates ----------------------------------------------- *)
  (* Three-valued abstract evaluation of a predicate expression at a block:
     [Some b] only when every consistent concrete state agrees on [b]. *)
  let atom_of_hexpr b a =
    match Pgvn.Hexpr.node a with
    | Pgvn.Hexpr.Const k -> Some (Itv.const k)
    | Pgvn.Hexpr.Value v ->
        if Analysis.Dom.dominates dom (Ir.Func.block_of_instr f v) b then Some (env b v)
        else None
    | _ -> None
  in
  let rec eval_pred b (p : Pgvn.Hexpr.t) : bool option =
    match Pgvn.Hexpr.node p with
    | Pgvn.Hexpr.Const k -> Some (k <> 0)
    | Pgvn.Hexpr.Value v ->
        if Analysis.Dom.dominates dom (Ir.Func.block_of_instr f v) b then
          Itv.to_bool (env b v)
        else None
    | Pgvn.Hexpr.Cmp (op, x, y) -> (
        match (atom_of_hexpr b x, atom_of_hexpr b y) with
        | Some a, Some a' when not (Itv.is_bottom a || Itv.is_bottom a') ->
            Itv.cmp_verdict op a a'
        | _ -> None)
    | Pgvn.Hexpr.Pand l ->
        let vs = List.map (eval_pred b) l in
        if List.exists (( = ) (Some false)) vs then Some false
        else if List.for_all (( = ) (Some true)) vs then Some true
        else None
    | Pgvn.Hexpr.Por l ->
        let vs = List.map (eval_pred b) l in
        if List.exists (( = ) (Some true)) vs then Some true
        else if List.for_all (( = ) (Some false)) vs then Some false
        else None
    | _ -> None
  in
  let phi_preds_checked = ref 0 in
  Array.iteri
    (fun b p ->
      match p with
      | Some p when live b && st.Pgvn.State.reach_block.(b) -> (
          incr phi_preds_checked;
          match eval_pred b p with
          | Some false ->
              flag (Sblock b) "its φ block predicate holds here"
                "abstract evaluation proves the predicate definitely false"
          | _ -> ())
      | _ -> ())
    st.Pgvn.State.pred_block;

  (* --- constants -------------------------------------------------------- *)
  let constants_checked = ref 0 in
  for v = 0 to Ir.Func.num_instrs f - 1 do
    if
      Ir.Func.defines_value (Ir.Func.instr f v)
      && (not (Pgvn.Driver.value_unreachable st v))
      && live (Ir.Func.block_of_instr f v)
    then
      match Pgvn.Driver.value_constant st v with
      | Some k ->
          let d = res.Ranges.facts.(v) in
          if not (Itv.is_bottom d) then begin
            incr constants_checked;
            if not (Itv.may_equal d k) then
              flag (Svalue v)
                (Fmt.str "v%d is congruent to the constant %d" v k)
                (Fmt.str "v%d ∈ %s excludes %d" v (itv_str d) k)
          end
      | None -> ()
  done;

  (* --- precision accounting --------------------------------------------- *)
  let precision_wins = ref 0 in
  Array.iteri
    (fun e engine_reach ->
      if engine_reach && not res.Ranges.edge_exec.(e) then incr precision_wins)
    st.Pgvn.State.reach_edge;

  {
    branches_checked = !branches_checked;
    inferences_checked = !inferences_checked;
    pred_checked = !pred_checked;
    phi_preds_checked = !phi_preds_checked;
    constants_checked = !constants_checked;
    precision_wins = !precision_wins;
    contradictions = List.rev !contras;
  }
