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
    let nb = Ir.Func.num_blocks f in
    let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
    for _ = 0 to nb - 1 do
      ignore (Ir.Builder.add_block bld)
    done;
    let value_map = Array.make (Ir.Func.num_instrs f) (-1) in
    let resolve v = value_map.(v) in
    let phis = ref [] in
    let rpo = Analysis.Ctx.rpo (Analysis.Ctx.create f) f in
    (* Phis are created for every block first (their arguments are wired
       after all definitions exist, so back edges are no problem). *)
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            match Ir.Func.instr f i with
            | Ir.Func.Phi args when live.(i) ->
                let p = Ir.Builder.phi bld b in
                value_map.(i) <- p;
                phis := (b, p, args) :: !phis
            | _ -> ())
          (Ir.Func.block f b).Ir.Func.instrs)
      rpo.Analysis.Rpo.order;
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            if live.(i) then
              match Ir.Func.instr f i with
              | Ir.Func.Const c -> value_map.(i) <- Ir.Builder.const bld b c
              | Ir.Func.Param k -> value_map.(i) <- Ir.Builder.param bld b k
              | Ir.Func.Unop (op, a) -> value_map.(i) <- Ir.Builder.unop bld b op (resolve a)
              | Ir.Func.Binop (op, a, b') ->
                  value_map.(i) <- Ir.Builder.binop bld b op (resolve a) (resolve b')
              | Ir.Func.Cmp (op, a, b') ->
                  value_map.(i) <- Ir.Builder.cmp bld b op (resolve a) (resolve b')
              | Ir.Func.Opaque (tag, args) ->
                  value_map.(i) <-
                    Ir.Builder.opaque ~tag bld b (List.map resolve (Array.to_list args))
              | Ir.Func.Phi _ | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ())
          (Ir.Func.block f b).Ir.Func.instrs)
      rpo.Analysis.Rpo.order;
    (* Edges, preserving structure; remember new edge ids. *)
    let edge_map = Array.make (Ir.Func.num_edges f) (-1) in
    for b = 0 to nb - 1 do
      let blk = Ir.Func.block f b in
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump -> edge_map.(blk.Ir.Func.succs.(0)) <- Ir.Builder.jump bld b ~dst:(Ir.Func.edge f blk.Ir.Func.succs.(0)).Ir.Func.dst
      | Ir.Func.Branch c ->
          let et, ef =
            Ir.Builder.branch bld b (resolve c)
              ~ift:(Ir.Func.edge f blk.Ir.Func.succs.(0)).Ir.Func.dst
              ~iff:(Ir.Func.edge f blk.Ir.Func.succs.(1)).Ir.Func.dst
          in
          edge_map.(blk.Ir.Func.succs.(0)) <- et;
          edge_map.(blk.Ir.Func.succs.(1)) <- ef
      | Ir.Func.Switch (c, cases) ->
          let case_args =
            Array.to_list
              (Array.mapi
                 (fun ix k -> (k, (Ir.Func.edge f blk.Ir.Func.succs.(ix)).Ir.Func.dst))
                 cases)
          in
          let default = (Ir.Func.edge f blk.Ir.Func.succs.(Array.length cases)).Ir.Func.dst in
          let case_edges, default_edge =
            Ir.Builder.switch bld b (resolve c) ~cases:case_args ~default
          in
          List.iteri (fun ix e -> edge_map.(blk.Ir.Func.succs.(ix)) <- e) case_edges;
          edge_map.(blk.Ir.Func.succs.(Array.length cases)) <- default_edge
      | Ir.Func.Return v -> Ir.Builder.ret bld b (resolve v)
      | _ -> invalid_arg "Dce.run: missing terminator"
    done;
    List.iter
      (fun (b, p, args) ->
        let preds = (Ir.Func.block f b).Ir.Func.preds in
        Array.iteri
          (fun ix e -> Ir.Builder.set_phi_arg bld ~phi:p ~edge:edge_map.(e) (resolve args.(ix)))
          preds)
      !phis;
    Ir.Builder.finish bld
  end
