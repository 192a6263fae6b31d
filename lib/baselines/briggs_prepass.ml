(* Briggs–Torczon–Cooper's value-inference pre-pass [5]: before value
   numbering, uses dominated by the true edge of an equality test are
   rewritten to the other operand of the test (here: to the constant, when
   one side is constant — the profitable direction).

   Crucially — and this is the paper's Figure 13 point — the pre-pass
   operates on SSA *names*, not on congruence classes: a value that is
   merely congruent to the tested name is not rewritten, so the unified
   algorithm finds strictly more. *)

(* For each value v, the constant it may be replaced with inside each
   dominated region: list of (region root block, constant). *)
let facts_of (f : Ir.Func.t) (dom : Analysis.Dom.t) =
  let facts = Hashtbl.create 16 in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
    | Ir.Func.Branch c -> (
        match Ir.Func.instr f c with
        | Ir.Func.Cmp (Ir.Types.Eq, x, y) ->
            let target_const v w =
              match Ir.Func.instr f w with Ir.Func.Const n -> Some (v, n) | _ -> None
            in
            let fact =
              match target_const x y with Some _ as s -> s | None -> target_const y x
            in
            (match fact with
            | Some (v, n) ->
                (* The true successor, provided the edge is its only
                   predecessor (otherwise the region is not edge-dominated). *)
                let e = (Ir.Func.block f b).Ir.Func.succs.(0) in
                let d = (Ir.Func.edge f e).Ir.Func.dst in
                if Array.length (Ir.Func.block f d).Ir.Func.preds = 1 then
                  Hashtbl.add facts v (d, n)
            | None -> ())
        | _ -> ())
    | _ -> ()
  done;
  ignore dom;
  facts

(* Rewrite dominated uses. Returns the transformed function. *)
let run (f : Ir.Func.t) : Ir.Func.t =
  let ctx = Analysis.Ctx.create f in
  let dom = Analysis.Ctx.dom ctx f in
  let facts = facts_of f dom in
  if Hashtbl.length facts = 0 then f
  else begin
    let nb = Ir.Func.num_blocks f in
    let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
    for _ = 0 to nb - 1 do
      ignore (Ir.Builder.add_block bld)
    done;
    let value_map = Array.make (Ir.Func.num_instrs f) (-1) in
    (* Constants for rewrites materialize in the region root. *)
    let const_cache = Hashtbl.create 8 in
    let const_in root n =
      match Hashtbl.find_opt const_cache (root, n) with
      | Some v -> v
      | None ->
          let v = Ir.Builder.const bld root n in
          Hashtbl.replace const_cache (root, n) v;
          v
    in
    (* Resolve a use of [v] from block [b]. *)
    let resolve ~use_block v =
      let applicable =
        Hashtbl.find_all facts v
        |> List.filter (fun (root, _) -> Analysis.Dom.dominates dom root use_block)
      in
      match applicable with
      | (root, n) :: _ -> const_in root n
      | [] ->
          if value_map.(v) < 0 then invalid_arg "Briggs_prepass: unresolved value";
          value_map.(v)
    in
    let rpo = Analysis.Ctx.rpo ctx f in
    let phis = ref [] in
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            match Ir.Func.instr f i with
            | Ir.Func.Const c -> value_map.(i) <- Ir.Builder.const bld b c
            | Ir.Func.Param k -> value_map.(i) <- Ir.Builder.param bld b k
            | Ir.Func.Unop (op, a) ->
                value_map.(i) <- Ir.Builder.unop bld b op (resolve ~use_block:b a)
            | Ir.Func.Binop (op, a, b') ->
                value_map.(i) <-
                  Ir.Builder.binop bld b op (resolve ~use_block:b a) (resolve ~use_block:b b')
            | Ir.Func.Cmp (op, a, b') ->
                value_map.(i) <-
                  Ir.Builder.cmp bld b op (resolve ~use_block:b a) (resolve ~use_block:b b')
            | Ir.Func.Opaque (tag, args) ->
                value_map.(i) <-
                  Ir.Builder.opaque ~tag bld b
                    (List.map (resolve ~use_block:b) (Array.to_list args))
            | Ir.Func.Phi args ->
                let p = Ir.Builder.phi bld b in
                value_map.(i) <- p;
                phis := (b, p, args) :: !phis
            | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ())
          (Ir.Func.block f b).Ir.Func.instrs)
      rpo.Analysis.Rpo.order;
    let edge_map = Array.make (Ir.Func.num_edges f) (-1) in
    for b = 0 to nb - 1 do
      let blk = Ir.Func.block f b in
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump ->
          edge_map.(blk.Ir.Func.succs.(0)) <-
            Ir.Builder.jump bld b ~dst:(Ir.Func.edge f blk.Ir.Func.succs.(0)).Ir.Func.dst
      | Ir.Func.Branch c ->
          let et, ef =
            Ir.Builder.branch bld b (resolve ~use_block:b c)
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
            Ir.Builder.switch bld b (resolve ~use_block:b c) ~cases:case_args ~default
          in
          List.iteri (fun ix e -> edge_map.(blk.Ir.Func.succs.(ix)) <- e) case_edges;
          edge_map.(blk.Ir.Func.succs.(Array.length cases)) <- default_edge
      | Ir.Func.Return v -> Ir.Builder.ret bld b (resolve ~use_block:b v)
      | _ -> invalid_arg "Briggs_prepass: missing terminator"
    done;
    List.iter
      (fun (b, p, args) ->
        let preds = (Ir.Func.block f b).Ir.Func.preds in
        Array.iteri
          (fun ix e ->
            (* A φ argument is used at the source of the edge carrying it. *)
            let src = (Ir.Func.edge f e).Ir.Func.src in
            Ir.Builder.set_phi_arg bld ~phi:p ~edge:edge_map.(e)
              (resolve ~use_block:src args.(ix)))
          preds)
      !phis;
    Ir.Builder.finish bld
  end
