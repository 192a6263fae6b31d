(* Speculation safety. The one potentially faulting operator class in this
   IR is integer division ([Div]/[Rem] fault on a zero divisor and on the
   min_int / -1 overflow pair, see Ir.Types.div_rem_faults); everything else
   is trap-free. Opaque calls are never speculated, and φs/terminators are
   anchored to their blocks by construction.

   Soundness note: [classify] reads the UNREFINED facts ([res.facts]) — the
   join over all executable paths, valid wherever the operand definitions
   dominate. Refined facts ([env_at]) embed dominating branch constraints
   (e.g. the [d <> 0] guard itself) and would wrongly license hoisting a
   division above the very guard that protects it; only the legality
   checker ([Check.Schedule]) reads them, to ask about evaluating the op at
   one specific block. *)

type reason = May_trap of { predicate : int option } | Call | Anchored
type t = Safe | Proven of string | Pinned of reason

let is_pinned = function Pinned _ -> true | _ -> false

(* The nearest strict dominator whose terminator branches and which [b]
   does not postdominate: b's execution is conditional on the outcome
   tested there. Blocks that cannot reach an exit postdominate nothing, so
   every branching dominator counts — conservative in the right direction. *)
let controlling_predicate (f : Ir.Func.t) ~dom ~pdom b =
  let rec up a =
    let ia = dom.Analysis.Dom.idom.(a) in
    if ia < 0 then None
    else
      match Ir.Func.instr f (Ir.Func.terminator_of_block f ia) with
      | (Ir.Func.Branch _ | Ir.Func.Switch _)
        when not (Analysis.Postdom.postdominates pdom b ia) ->
          Some ia
      | _ -> up ia
  in
  if Analysis.Dom.reachable dom b then up b else None

let div_cleared ~(num : Absint.Itv.t) ~(den : Absint.Itv.t) =
  (not (Absint.Itv.mem 0 den))
  && not (Absint.Itv.mem (-1) den && Absint.Itv.mem min_int num)

let classify (f : Ir.Func.t) ~dom ~pdom ~(ranges : Absint.Ranges.result) v =
  match Ir.Func.instr f v with
  | Ir.Func.Const _ | Ir.Func.Param _ | Ir.Func.Unop _ | Ir.Func.Cmp _ -> Safe
  | Ir.Func.Binop ((Ir.Types.Div | Ir.Types.Rem), n, d) ->
      let num = ranges.facts.(n) and den = ranges.facts.(d) in
      if div_cleared ~num ~den then
        Proven (Fmt.str "divisor %a excludes 0 and min_int/-1" Absint.Itv.pp den)
      else
        Pinned
          (May_trap
             {
               predicate =
                 controlling_predicate f ~dom ~pdom (Ir.Func.block_of_instr f v);
             })
  | Ir.Func.Binop _ -> Safe
  | Ir.Func.Opaque _ -> Pinned Call
  | Ir.Func.Phi _ | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _
  | Ir.Func.Return _ ->
      Pinned Anchored

(* Dominating-fact clearing: do the branch facts holding on entry to
   [block] prove the division cannot fault? The facts embed [block]'s
   dominating guards, so they are valid at [block] and (values being
   immutable) at every block it dominates. The multi-fact implication
   closure decides them, not one refined interval, so a guard conjunction
   like
   [d != 0 && d != -1] clears a division no single interval fact can. *)
let cleared_by_facts (facts : Pred.Facts.t) (f : Ir.Func.t) ~block v =
  match Ir.Func.instr f v with
  | Ir.Func.Binop ((Ir.Types.Div | Ir.Types.Rem), n, d) ->
      let cl = Pred.Facts.closure_at_block facts block in
      let proves op a c = Pred.Closure.decide cl op a (Pred.Atom.Const c) = Pred.Closure.True in
      let dt = Pred.Facts.term_of f d and nt = Pred.Facts.term_of f n in
      proves Ir.Types.Ne dt 0
      && (proves Ir.Types.Ne dt (-1) || proves Ir.Types.Ne nt min_int)
  | _ -> true

let pp ppf = function
  | Safe -> Format.fprintf ppf "safe"
  | Proven why -> Format.fprintf ppf "proven (%s)" why
  | Pinned (May_trap { predicate = Some p }) ->
      Format.fprintf ppf "pinned: may trap (guarded by b%d)" p
  | Pinned (May_trap { predicate = None }) ->
      Format.fprintf ppf "pinned: may trap"
  | Pinned Call -> Format.fprintf ppf "pinned: call"
  | Pinned Anchored -> Format.fprintf ppf "pinned: anchored"
