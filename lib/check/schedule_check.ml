(* Schedule-legality verifier: given a proposed placement (per-value block
   assignment), certify that rescheduling every value to its assigned block
   preserves SSA dominance, φ anchoring, trap safety, and never drags a
   computation into a deeper loop.

   Deliberately independent of lib/schedule — this is the other side of the
   certification fence. It recomputes dominators, the loop forest and the
   interval facts from first principles and judges any placement, including
   the identity (which it certifies on the whole corpus today) and the
   output of a future GCM transform.

   Speculation discipline: a MOVED faulting op must be cleared by the
   refined facts at its proposed block ([env_at], which includes the branch
   constraints holding there) — an op left at its original block needs no
   clearance, because the original program already evaluates it there. This
   is the dual of the placement analysis, which uses unrefined facts to
   decide what may float: the checker asks about one concrete destination,
   so the destination's own guards count.

   Check ids (all Error severity, pinned by tests):
   - sched-placement:   placement vector malformed / target out of range or
                        unreachable;
   - sched-phi:         a φ moved off its block;
   - sched-dominance:   a value's block no longer dominates a use position
                        (plain and terminator uses at the user's block, φ
                        uses at the carrying predecessor edge's source);
   - sched-speculation: a faulting op moved to a block whose predicates do
                        not clear it, or an opaque call moved at all;
   - sched-loop-depth:  a value moved to a strictly deeper loop. *)

type placement = int array

let identity (f : Ir.Func.t) = Array.copy f.Ir.Func.instr_block

let run ?placement (f : Ir.Func.t) : Diagnostic.t list =
  let place = match placement with Some p -> p | None -> identity f in
  let ni = Ir.Func.num_instrs f in
  let nb = Ir.Func.num_blocks f in
  if Array.length place <> ni then
    [
      Diagnostic.error ~check:"sched-placement" ~loc:Diagnostic.Func
        "placement has %d entries for %d instructions" (Array.length place) ni;
    ]
  else begin
    let ctx = Analysis.Ctx.create f in
    let dom = Analysis.Ctx.dom ctx f in
    let forest = Analysis.Ctx.loops ctx f in
    (* Both fact sources are only needed when a faulting op actually moved.
       A destination clears a division if its refined intervals do, or if
       the multi-fact implication closure over its dominating branch facts
       does — guard conjunctions like [d != 0 && d != -1] are invisible to
       intervals. Both come from one interval run, recomputed here from
       first principles. *)
    let ranges = lazy (Absint.Ranges.run ~ctx f) in
    let cleared_at b v =
      match Ir.Func.instr f v with
      | Ir.Func.Binop ((Ir.Types.Div | Ir.Types.Rem), n, d) ->
          let r = Lazy.force ranges in
          let num = Absint.Ranges.env_at r b n
          and den = Absint.Ranges.env_at r b d in
          ((not (Absint.Itv.mem 0 den))
          && not (Absint.Itv.mem (-1) den && Absint.Itv.mem min_int num))
          ||
          let cl = Pred.Facts.closure_at_block (Absint.Ranges.branch_facts r) b in
          let proves op a c =
            Pred.Closure.decide cl op a (Pred.Atom.Const c) = Pred.Closure.True
          in
          let dt = Pred.Facts.term_of f d and nt = Pred.Facts.term_of f n in
          proves Ir.Types.Ne dt 0
          && (proves Ir.Types.Ne dt (-1) || proves Ir.Types.Ne nt min_int)
      | _ -> true
    in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    for v = 0 to ni - 1 do
      let ins = Ir.Func.instr f v in
      if Ir.Func.defines_value ins then begin
        let b = Ir.Func.block_of_instr f v in
        let p = place.(v) in
        if p < 0 || p >= nb then
          add
            (Diagnostic.error ~check:"sched-placement" ~loc:(Diagnostic.Instr v)
               "v%d placed in nonexistent block %d" v p)
        else if p <> b then begin
          if not (Analysis.Dom.reachable dom b && Analysis.Dom.reachable dom p)
          then
            add
              (Diagnostic.error ~check:"sched-placement" ~loc:(Diagnostic.Instr v)
                 "v%d moved %s unreachable code (b%d -> b%d)" v
                 (if Analysis.Dom.reachable dom b then "into" else "out of")
                 b p)
          else begin
            (match ins with
            | Ir.Func.Phi _ ->
                add
                  (Diagnostic.error ~check:"sched-phi" ~loc:(Diagnostic.Instr v)
                     "φ v%d moved off its block (b%d -> b%d)" v b p)
            | Ir.Func.Opaque _ ->
                add
                  (Diagnostic.error ~check:"sched-speculation"
                     ~loc:(Diagnostic.Instr v)
                     "opaque call v%d may not move (b%d -> b%d)" v b p)
            | Ir.Func.Binop ((Ir.Types.Div | Ir.Types.Rem), _, _)
              when not (cleared_at p v) ->
                add
                  (Diagnostic.error ~check:"sched-speculation"
                     ~loc:(Diagnostic.Instr v)
                     "v%d may fault and b%d's predicates do not clear it: \
                      hoisted past an uncleared predicate (from b%d)"
                     v p b)
            | _ -> ());
            if Analysis.Loops.depth_at forest p > Analysis.Loops.depth_at forest b
            then
              add
                (Diagnostic.error ~check:"sched-loop-depth"
                   ~loc:(Diagnostic.Instr v)
                   "v%d moved into a deeper loop: b%d depth %d -> b%d depth %d"
                   v b
                   (Analysis.Loops.depth_at forest b)
                   p
                   (Analysis.Loops.depth_at forest p))
          end
        end
      end
    done;
    (* Dominance: every definition's placed block must dominate every use
       position. Use positions ignore the placement of the USER only for
       φs and terminators, which are anchored (and checked above). *)
    let use_ok vdef pos = Analysis.Dom.dominates dom place.(vdef) pos in
    Array.iteri
      (fun u ins ->
        let check_use msg vdef pos =
          (* Out-of-range targets (of either end) already got their own
             sched-placement error. *)
          if
            place.(vdef) >= 0
            && place.(vdef) < nb
            && pos >= 0
            && pos < nb
            && Analysis.Dom.reachable dom place.(vdef)
            && Analysis.Dom.reachable dom pos
            && not (use_ok vdef pos)
          then
            add
              (Diagnostic.error ~check:"sched-dominance" ~loc:(Diagnostic.Instr u)
                 "v%d placed in b%d does not dominate its %s in b%d (use by v%d)"
                 vdef place.(vdef) msg pos u)
        in
        match ins with
        | Ir.Func.Phi args ->
            let blk = Ir.Func.block f (Ir.Func.block_of_instr f u) in
            Array.iteri
              (fun ix v ->
                let src = (Ir.Func.edge f blk.Ir.Func.preds.(ix)).Ir.Func.src in
                check_use "φ edge" v src)
              args
        | _ when Ir.Func.is_terminator ins ->
            let pos = Ir.Func.block_of_instr f u in
            Ir.Func.iter_operands (fun v -> check_use "terminator" v pos) ins
        | _ ->
            let pos = if Ir.Func.defines_value ins then place.(u) else Ir.Func.block_of_instr f u in
            Ir.Func.iter_operands (fun v -> check_use "use" v pos) ins)
      f.Ir.Func.instrs;
    List.rev !diags
  end
