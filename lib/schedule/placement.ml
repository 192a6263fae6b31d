(* Early/late/best schedules, per Click PLDI '95.

   Early: a value is available from the deepest (by dominator-tree depth)
   of its operands' early blocks — computed by a memoized walk of the SSA
   def-use graph, the sparse style of the rest of the repo's analyses.
   Recursion terminates because every SSA cycle passes through a φ, and φs
   are pinned to their blocks.

   Late: the dominator-tree LCA of the value's use positions. A plain use
   sits in the user's block; a φ use sits at the source of the predecessor
   edge that carries the argument (the value must be available on that edge,
   not in the φ's block). The current block dominates every reachable use
   position, so the LCA is on the dominator path below early — the legal
   range [early .. late] is a path in the dominator tree through the
   current block.

   Best: walk the dominator path from late up to early and keep the block
   of minimum loop depth, preferring the latest such block (don't move on
   ties) so values stay close to their uses — Click's heuristic. Pinned
   values (φs, calls, uncleared faulting ops) never move: their range
   collapses to the current block. *)

type t = {
  func : Ir.Func.t;
  ctx : Analysis.Ctx.t;
  ranges : Absint.Ranges.result;
  safety : Speculate.t array;
  early : int array;
  late : int array;
  best : int array;
}

type stats = {
  values : int;
  pinned : int;
  speculation_blocked : int;
  hoistable : int;
  sinkable : int;
}

let dom t = Analysis.Ctx.dom t.ctx t.func
let pdom t = Analysis.Ctx.postdom t.ctx t.func
let forest t = Analysis.Ctx.loops t.ctx t.func
let identity (f : Ir.Func.t) = Array.copy f.Ir.Func.instr_block
let is_value_at f v = Ir.Func.defines_value (Ir.Func.instr f v)

let movable t v =
  is_value_at t.func v
  && Analysis.Dom.reachable (dom t) (Ir.Func.block_of_instr t.func v)
  && not (Speculate.is_pinned t.safety.(v))

let hoistable t v =
  movable t v
  &&
  let b = Ir.Func.block_of_instr t.func v in
  Analysis.Dom.strictly_dominates (dom t) t.best.(v) b
  && Analysis.Loops.depth_at (forest t) t.best.(v) < Analysis.Loops.depth_at (forest t) b

let sinkable t v =
  movable t v
  &&
  let b = Ir.Func.block_of_instr t.func v in
  Analysis.Dom.strictly_dominates (dom t) b t.best.(v)
  && (Analysis.Loops.depth_at (forest t) t.best.(v) < Analysis.Loops.depth_at (forest t) b
     || not (Analysis.Postdom.postdominates (pdom t) t.best.(v) b))

let stats t =
  let ni = Ir.Func.num_instrs t.func in
  let values = ref 0
  and pinned = ref 0
  and blocked = ref 0
  and hoist = ref 0
  and sink = ref 0 in
  for v = 0 to ni - 1 do
    if is_value_at t.func v
       && Analysis.Dom.reachable (dom t) (Ir.Func.block_of_instr t.func v)
    then begin
      incr values;
      (match t.safety.(v) with
      | Speculate.Pinned (Speculate.May_trap _) ->
          incr pinned;
          incr blocked
      | Speculate.Pinned _ -> incr pinned
      | Speculate.Safe | Speculate.Proven _ -> ());
      if hoistable t v then incr hoist;
      if sinkable t v then incr sink
    end
  done;
  {
    values = !values;
    pinned = !pinned;
    speculation_blocked = !blocked;
    hoistable = !hoist;
    sinkable = !sink;
  }

let compute ?obs (f : Ir.Func.t) : t =
  Obs.span_o obs ~cat:"schedule" "schedule.compute" @@ fun () ->
  let t0 = match obs with Some o -> Obs.clock o | None -> 0.0 in
  let ctx = Analysis.Ctx.create f in
  let dom = Analysis.Ctx.dom ctx f in
  let pdom = Analysis.Ctx.postdom ctx f in
  let forest = Analysis.Ctx.loops ctx f in
  let ranges = Absint.Ranges.run ?obs ~ctx f in
  let ni = Ir.Func.num_instrs f in
  let safety =
    Array.init ni (fun v ->
        if is_value_at f v then Speculate.classify f ~dom ~pdom ~ranges v
        else Speculate.Pinned Speculate.Anchored)
  in
  (* Use positions, per operand definition — independent of safety. *)
  let posns = Array.make ni [] in
  Array.iteri
    (fun u ins ->
      match ins with
      | Ir.Func.Phi args ->
          let blk = Ir.Func.block f (Ir.Func.block_of_instr f u) in
          Array.iteri
            (fun ix v ->
              let src = (Ir.Func.edge f blk.Ir.Func.preds.(ix)).Ir.Func.src in
              posns.(v) <- src :: posns.(v))
            args
      | _ ->
          let b = Ir.Func.block_of_instr f u in
          Ir.Func.iter_operands (fun v -> posns.(v) <- b :: posns.(v)) ins)
    f.Ir.Func.instrs;
  (* Fact-cleared divisions get their early clamped to the highest block
     whose dominating facts clear them (phase 2 below): the guards sit at
     that block, so the value may float anywhere it dominates but not
     above it. *)
  let clamp = Array.make ni (-1) in
  (* Both schedules under the current safety classification. *)
  let schedule () =
    let early = Array.make ni (-1) in
    let rec early_of v =
      if early.(v) >= 0 then early.(v)
      else begin
        let b = Ir.Func.block_of_instr f v in
        (* Provisional self-placement guards against malformed SSA cycles;
           well-formed cycles stop at a pinned φ before re-entering. *)
        early.(v) <- b;
        let e =
          if (not (Analysis.Dom.reachable dom b)) || Speculate.is_pinned safety.(v)
          then b
          else begin
            let e = ref Ir.Func.entry in
            Ir.Func.iter_operands
              (fun o ->
                let eo = early_of o in
                if Analysis.Dom.reachable dom eo
                   && dom.Analysis.Dom.depth.(eo) > dom.Analysis.Dom.depth.(!e)
                then e := eo)
              (Ir.Func.instr f v);
            if clamp.(v) >= 0 then clamp.(v) else !e
          end
        in
        early.(v) <- e;
        e
      end
    in
    for v = 0 to ni - 1 do
      ignore (early_of v)
    done;
    let late = Array.make ni (-1) in
    let best = Array.make ni (-1) in
    for v = 0 to ni - 1 do
      let b = Ir.Func.block_of_instr f v in
      if
        (not (is_value_at f v))
        || (not (Analysis.Dom.reachable dom b))
        || Speculate.is_pinned safety.(v)
      then begin
        late.(v) <- b;
        best.(v) <- b
      end
      else begin
        (match List.filter (Analysis.Dom.reachable dom) posns.(v) with
        | [] -> late.(v) <- b
        | p :: ps -> late.(v) <- List.fold_left (Analysis.Dom.nca dom) p ps);
        (* Minimum loop depth on the dominator path late .. early; the
           latest such block wins ties. *)
        let cur = ref late.(v) and bst = ref late.(v) in
        while !cur <> early.(v) && !cur >= 0 do
          cur := dom.Analysis.Dom.idom.(!cur);
          if
            !cur >= 0
            && Analysis.Loops.depth_at forest !cur
               < Analysis.Loops.depth_at forest !bst
          then bst := !cur
        done;
        best.(v) <- !bst
      end
    done;
    (early, late, best)
  in
  let early, late, best = schedule () in
  (* Second phase: a division pinned for trap safety is re-examined on the
     dominator chain between its block and the deepest of its operands'
     earlies. The highest block on that chain whose dominating branch facts
     clear the division marks where its protecting guards sit — above it
     the facts no longer hold, below it (values being immutable) they
     always do. When one exists strictly above the division, the
     interval-based pin was conservative: upgrade to Proven, clamp early to
     the clearing block, and reschedule, giving the value a real range. *)
  let fact_upgrades = ref 0 in
  let facts = Absint.Ranges.branch_facts ranges in
  for v = 0 to ni - 1 do
    match safety.(v) with
    | Speculate.Pinned (Speculate.May_trap _)
      when Analysis.Dom.reachable dom (Ir.Func.block_of_instr f v) ->
        let b = Ir.Func.block_of_instr f v in
        let e = ref Ir.Func.entry in
        Ir.Func.iter_operands
          (fun o ->
            let eo = early.(o) in
            if Analysis.Dom.reachable dom eo
               && dom.Analysis.Dom.depth.(eo) > dom.Analysis.Dom.depth.(!e)
            then e := eo)
          (Ir.Func.instr f v);
        let cleared = ref (-1) in
        let a = ref dom.Analysis.Dom.idom.(b) in
        while !a >= 0 && dom.Analysis.Dom.depth.(!a) >= dom.Analysis.Dom.depth.(!e) do
          if Speculate.cleared_by_facts facts f ~block:!a v then cleared := !a;
          a := dom.Analysis.Dom.idom.(!a)
        done;
        if !cleared >= 0 then begin
          safety.(v) <-
            Speculate.Proven (Fmt.str "dominating facts at b%d clear the division" !cleared);
          clamp.(v) <- !cleared;
          incr fact_upgrades
        end
    | _ -> ()
  done;
  let early, late, best = if !fact_upgrades > 0 then schedule () else (early, late, best) in
  let t =
    { func = f; ctx; ranges; safety; early; late; best }
  in
  (match obs with
  | None -> ()
  | Some o ->
      let s = stats t in
      Obs.add o "schedule.values" s.values;
      Obs.add o "schedule.hoistable" s.hoistable;
      Obs.add o "schedule.sinkable" s.sinkable;
      Obs.add o "schedule.speculation_blocked" s.speculation_blocked;
      Obs.add o "schedule.fact_cleared" !fact_upgrades;
      Obs.observe_seconds o "schedule.compute_ns" (Obs.clock o -. t0));
  t

let lints t =
  let ni = Ir.Func.num_instrs t.func in
  let out = ref [] in
  for v = ni - 1 downto 0 do
    let b = Ir.Func.block_of_instr t.func v in
    if hoistable t v then
      out :=
        Check.Diagnostic.info ~check:"lint-loop-invariant"
          ~loc:(Check.Diagnostic.Instr v)
          "v%d is loop-invariant: best block b%d (depth %d) vs b%d (depth %d)" v
          t.best.(v)
          (Analysis.Loops.depth_at (forest t) t.best.(v))
          b
          (Analysis.Loops.depth_at (forest t) b)
        :: !out
    else if sinkable t v then
      out :=
        Check.Diagnostic.info ~check:"lint-sinkable"
          ~loc:(Check.Diagnostic.Instr v)
          "v%d can sink from b%d to b%d, closer to its uses" v b t.best.(v)
        :: !out
  done;
  !out

let pp_fact t ppf v =
  if not (is_value_at t.func v) then Format.fprintf ppf "-"
  else
    let b = Ir.Func.block_of_instr t.func v in
    Format.fprintf ppf "early b%d best b%d late b%d depth %d->%d %a%s" t.early.(v)
      t.best.(v) t.late.(v)
      (Analysis.Loops.depth_at (forest t) b)
      (Analysis.Loops.depth_at (forest t) t.best.(v))
      Speculate.pp t.safety.(v)
      (if hoistable t v then " [hoistable]"
       else if sinkable t v then " [sinkable]"
       else "")
