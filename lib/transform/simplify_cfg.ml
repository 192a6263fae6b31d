(* Straight-line block merging: when a block ends in an unconditional jump
   to a block whose only predecessor it is, the two are fused. φs in the
   fused block necessarily have a single argument and collapse to it.
   Structurally unreachable blocks are dropped. *)

let run (f : Ir.Func.t) : Ir.Func.t =
  let nb = Ir.Func.num_blocks f in
  let ctx = Analysis.Ctx.create f in
  let reach = Analysis.Graph.reachable (Analysis.Ctx.graph ctx f) in
  (* [next.(b)] = the unique successor merged into [b]'s chain. *)
  let next = Array.make nb (-1) in
  let merged = Array.make nb false in
  for b = 0 to nb - 1 do
    if reach.(b) then
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump ->
          let e = (Ir.Func.block f b).Ir.Func.succs.(0) in
          let c = (Ir.Func.edge f e).Ir.Func.dst in
          if c <> b && c <> Ir.Func.entry && Array.length (Ir.Func.block f c).Ir.Func.preds = 1
          then begin
            next.(b) <- c;
            merged.(c) <- true
          end
      | _ -> ()
  done;
  let nothing_to_do =
    Array.for_all (fun n -> n < 0) next && Array.for_all Fun.id reach
  in
  if nothing_to_do then f
  else begin
    (* Heads: reachable blocks not merged into a predecessor. The head of a
       chain hosts every instruction of the chain and the terminator of its
       tail; a tail's successors are heads themselves. *)
    let keep = Array.init nb (fun b -> reach.(b) && not merged.(b)) in
    let c = Ir.Copy.create ~keep f in
    let rec emit head b =
      Array.iter
        (fun i ->
          match Ir.Func.instr f i with
          | Ir.Func.Phi args when b <> head ->
              (* Interior of a chain: single predecessor, single arg. *)
              Ir.Copy.alias c i args.(0)
          | ins -> if Ir.Func.defines_value ins then Ir.Copy.instr c ~into:head i)
        (Ir.Func.block f b).Ir.Func.instrs;
      if next.(b) >= 0 then emit head next.(b)
    in
    (* A chain's φs take their arguments at [finish], so RPO over the heads
       puts every other definition before its uses. *)
    Array.iter (fun b -> if keep.(b) then emit b b) (Analysis.Ctx.rpo ctx f).Analysis.Rpo.order;
    let rec tail b = if next.(b) >= 0 then tail next.(b) else b in
    Ir.Copy.finish ~term_from:tail c
  end

(* Iterate to a fixpoint (merging can enable further merging), for at
   most ten rounds. *)
let fixpoint f =
  let rec go rounds f =
    if rounds = 0 then f
    else
      let f' = run f in
      if Ir.Func.num_blocks f' = Ir.Func.num_blocks f then f' else go (rounds - 1) f'
  in
  go 10 f
