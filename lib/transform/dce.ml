(* Dead code elimination: every instruction in this IR is pure (opaque calls
   model *pure* unknown functions), so an instruction is live only if a
   terminator transitively depends on it. *)

let live_set (f : Ir.Func.t) =
  let live = Array.make (Ir.Func.num_instrs f) false in
  let rec mark v =
    if not live.(v) then begin
      live.(v) <- true;
      Ir.Func.iter_operands mark (Ir.Func.instr f v)
    end
  in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    match Ir.Func.instr f i with
    | Ir.Func.Branch c | Ir.Func.Switch (c, _) -> mark c
    | Ir.Func.Return v -> mark v
    | _ -> ()
  done;
  live

let run (f : Ir.Func.t) : Ir.Func.t =
  let live = live_set f in
  let all_live = ref true in
  Array.iteri
    (fun i l -> if (not l) && Ir.Func.defines_value (Ir.Func.instr f i) then all_live := false)
    live;
  if !all_live then f
  else begin
    (* RPO puts every definition before its non-φ uses. A block the entry
       does not reach is dropped. *)
    let ctx = Analysis.Ctx.create f in
    let rpo = Analysis.Ctx.rpo ctx f in
    let c = Ir.Copy.create ~keep:(Analysis.Graph.reachable (Analysis.Ctx.graph ctx f)) f in
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            if live.(i) && Ir.Func.defines_value (Ir.Func.instr f i) then Ir.Copy.instr c ~into:b i)
          (Ir.Func.block f b).Ir.Func.instrs)
      rpo.Analysis.Rpo.order;
    Ir.Copy.finish c
  end
