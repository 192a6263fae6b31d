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
    let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
    let block_map = Array.make nb (-1) in
    (* Heads: reachable blocks not merged into a predecessor. The head of a
       chain hosts every instruction of the chain. *)
    for b = 0 to nb - 1 do
      if reach.(b) && not merged.(b) then block_map.(b) <- Ir.Builder.add_block bld
    done;
    let head_of = Array.init nb (fun b -> b) in
    for b = 0 to nb - 1 do
      if reach.(b) && not merged.(b) then begin
        let rec follow c = if next.(c) >= 0 then follow next.(c) else c in
        ignore (follow b);
        let rec assign c =
          head_of.(c) <- b;
          if next.(c) >= 0 then assign next.(c)
        in
        assign b
      end
    done;
    let value_map = Array.make (Ir.Func.num_instrs f) (-1) in
    let alias = Hashtbl.create 16 in
    let rec resolve v =
      match Hashtbl.find_opt alias v with
      | Some a -> resolve a
      | None ->
          if value_map.(v) < 0 then invalid_arg "Simplify_cfg: unresolved value";
          value_map.(v)
    in
    let phi_wires = ref [] in
    let emit_chain_instrs head =
      let nb' = block_map.(head) in
      let rec emit b ~is_head =
        let blk = Ir.Func.block f b in
        Array.iter
          (fun i ->
            match Ir.Func.instr f i with
            | Ir.Func.Const c -> value_map.(i) <- Ir.Builder.const bld nb' c
            | Ir.Func.Param k -> value_map.(i) <- Ir.Builder.param bld nb' k
            | Ir.Func.Unop (op, a) -> value_map.(i) <- Ir.Builder.unop bld nb' op (resolve a)
            | Ir.Func.Binop (op, a, b') ->
                value_map.(i) <- Ir.Builder.binop bld nb' op (resolve a) (resolve b')
            | Ir.Func.Cmp (op, a, b') ->
                value_map.(i) <- Ir.Builder.cmp bld nb' op (resolve a) (resolve b')
            | Ir.Func.Opaque (tag, args) ->
                value_map.(i) <-
                  Ir.Builder.opaque ~tag bld nb' (List.map resolve (Array.to_list args))
            | Ir.Func.Phi args ->
                if is_head then begin
                  let p = Ir.Builder.phi bld nb' in
                  value_map.(i) <- p;
                  phi_wires := (b, p, args) :: !phi_wires
                end
                else
                  (* Interior of a chain: single predecessor, single arg. *)
                  Hashtbl.replace alias i args.(0)
            | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ())
          blk.Ir.Func.instrs;
        if next.(b) >= 0 then emit next.(b) ~is_head:false
      in
      emit head ~is_head:true
    in
    let rpo = Analysis.Ctx.rpo ctx f in
    (* Pre-create head φs in RPO before emitting bodies? φs are created
       during emission; interior non-φ operands may reference a φ of a later
       chain through a back edge only via φ args (wired last), so plain RPO
       emission is sufficient. *)
    Array.iter (fun b -> if (not merged.(b)) && reach.(b) then emit_chain_instrs b) rpo.Analysis.Rpo.order;
    let edge_map = Array.make (Ir.Func.num_edges f) (-1) in
    for b = 0 to nb - 1 do
      if reach.(b) && not merged.(b) then begin
        let rec tail c = if next.(c) >= 0 then tail next.(c) else c in
        let t = tail b in
        let blk = Ir.Func.block f t in
        match Ir.Func.instr f (Ir.Func.terminator_of_block f t) with
        | Ir.Func.Jump ->
            let e = blk.Ir.Func.succs.(0) in
            edge_map.(e) <-
              Ir.Builder.jump bld block_map.(b)
                ~dst:block_map.(head_of.((Ir.Func.edge f e).Ir.Func.dst))
        | Ir.Func.Branch c ->
            let et = blk.Ir.Func.succs.(0) and ef = blk.Ir.Func.succs.(1) in
            let net, nef =
              Ir.Builder.branch bld block_map.(b) (resolve c)
                ~ift:block_map.(head_of.((Ir.Func.edge f et).Ir.Func.dst))
                ~iff:block_map.(head_of.((Ir.Func.edge f ef).Ir.Func.dst))
            in
            edge_map.(et) <- net;
            edge_map.(ef) <- nef
        | Ir.Func.Switch (c, cases) ->
            let case_args =
              Array.to_list
                (Array.mapi
                   (fun ix k ->
                     (k, block_map.(head_of.((Ir.Func.edge f blk.Ir.Func.succs.(ix)).Ir.Func.dst))))
                   cases)
            in
            let default =
              block_map.(head_of.((Ir.Func.edge f blk.Ir.Func.succs.(Array.length cases)).Ir.Func.dst))
            in
            let case_edges, default_edge =
              Ir.Builder.switch bld block_map.(b) (resolve c) ~cases:case_args ~default
            in
            List.iteri (fun ix e -> edge_map.(blk.Ir.Func.succs.(ix)) <- e) case_edges;
            edge_map.(blk.Ir.Func.succs.(Array.length cases)) <- default_edge
        | Ir.Func.Return v -> Ir.Builder.ret bld block_map.(b) (resolve v)
        | _ -> invalid_arg "Simplify_cfg: missing terminator"
      end
    done;
    List.iter
      (fun (b, p, args) ->
        let preds = (Ir.Func.block f b).Ir.Func.preds in
        Array.iteri
          (fun ix e ->
            if edge_map.(e) >= 0 then
              Ir.Builder.set_phi_arg bld ~phi:p ~edge:edge_map.(e) (resolve args.(ix)))
          preds)
      !phi_wires;
    Ir.Builder.finish bld
  end

(* Iterate to a fixpoint (merging can enable further merging). *)
let rec fixpoint ?(max_rounds = 10) f =
  if max_rounds = 0 then f
  else
    let f' = run f in
    if Ir.Func.num_blocks f' = Ir.Func.num_blocks f then f' else fixpoint ~max_rounds:(max_rounds - 1) f'
