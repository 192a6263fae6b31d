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
   - predicate claims: every True/False verdict [Infer.decide] issued
     (recorded in [Run_stats.claims], each with what decided it: one
     dominating edge's predicate, or the multi-fact implication closure of
     lib/pred) claims a comparison's truth at a block; refuted when
     [Itv.cmp_verdict] proves the opposite ("pred-vs-interval" for a
     closure claim). A closure claim is also checked for conflicts against
     single-fact verdicts for the identical query at the identical block
     ("pred-vs-infer") — the two deciders over-approximate the same
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
   dominating [x = y] branch-edge fact proves dead with disjoint
   intervals), when a refined environment is bottom (the conjunction of
   dominating guards is already absurd, so the claim is vacuous), and when
   an operand's definition does not dominate the claim site (its interval
   does not constrain the hypothetical class value there).

   Independence: the replay builds a fresh [Analysis.Ctx] of its own for
   the input function and never reads the dominators, RPO or postdominators
   of the engine state it judges. *)

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
  let ctx = Analysis.Ctx.create f in
  let res = match ranges with Some r -> r | None -> Ranges.run ~ctx f in
  let dom = Analysis.Ctx.dom ctx f in
  let contras = ref [] in
  let flag site claim refutation =
    contras := { site; claim; refutation } :: !contras
  in
  let env b v = Ranges.env_at res b v in
  (* The interval refinement reads only value-versus-constant facts, but
     the engine's value inference also uses a dominating [x = y] fact. When
     the two intervals are disjoint at [b], that fact proves [b] dead, and
     any claim there is vacuous: the engine may soundly derive facts the
     intervals exclude. *)
  let facts = Ranges.branch_facts res in
  let equated_apart b =
    List.exists
      (function
        | { Pred.Atom.op = Ir.Types.Eq; a = Pred.Atom.Term x; b = Pred.Atom.Term y } ->
            Itv.is_bottom (Itv.meet (env b x) (env b y))
        | _ -> false)
      (Pred.Facts.at_block facts b)
  in
  let live =
    Array.init (Ir.Func.num_blocks f) (fun b ->
        res.Ranges.block_exec.(b) && not (equated_apart b))
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

  (* --- recorded predicate claims ----------------------------------------- *)
  (* Single-fact claims are replayed first, then closure claims, each in
     recorded order. A closure claim's contradictions carry pinned ids:
     "pred-vs-interval" for an interval refutation, "pred-vs-infer" for a
     verdict conflicting with a single-fact claim on the identical query at
     the identical block. *)
  let inferences_checked = ref 0 and pred_checked = ref 0 in
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
  let single, closure =
    List.partition
      (fun (c : Pgvn.Run_stats.claim) -> c.by <> Pgvn.Run_stats.Closure)
      st.Pgvn.State.stats.Pgvn.Run_stats.claims
  in
  let check_claim (c : Pgvn.Run_stats.claim) =
    let b = c.block in
    if live b then begin
      let query_s =
        Fmt.str "%s %s %s" (atom_str c.a) (Ir.Types.string_of_cmp c.op) (atom_str c.b)
      in
      let claim_s, checked, id =
        match c.by with
        | Pgvn.Run_stats.Edge e ->
            ( Fmt.str "%s is %b (from the predicate of edge e%d)" query_s c.verdict e,
              inferences_checked,
              "" )
        | Pgvn.Run_stats.Closure ->
            ( Fmt.str "%s is %b (multi-fact closure)" query_s c.verdict,
              pred_checked,
              "[pred-vs-interval] " )
      in
      (match (atom_itv b c.a, atom_itv b c.b) with
      | Some ia, Some ib when not (Itv.is_bottom ia || Itv.is_bottom ib) -> (
          incr checked;
          match Itv.cmp_verdict c.op ia ib with
          | Some v when v <> c.verdict ->
              flag (Sblock b) claim_s
                (Fmt.str "%sintervals %s and %s prove it %b" id (itv_str ia) (itv_str ib)
                   (not c.verdict))
          | _ -> ())
      | _ -> ());
      if c.by = Pgvn.Run_stats.Closure then
        List.iter
          (fun (s : Pgvn.Run_stats.claim) ->
            match s.by with
            | Pgvn.Run_stats.Edge e
              when s.block = b && s.op = c.op && s.a = c.a && s.b = c.b && s.verdict <> c.verdict
              ->
                flag (Sblock b) claim_s
                  (Fmt.str "[pred-vs-infer] the single-fact walk decided it %b via edge e%d"
                     (not c.verdict) e)
            | _ -> ())
          single
    end
  in
  List.iter check_claim (single @ closure);

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
