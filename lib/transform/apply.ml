(* Consume a GVN result: rebuild the function with unreachable blocks and
   edges removed, branches on decided conditions turned into jumps, values
   congruent to constants replaced by those constants, and redundant
   computations replaced by their congruence-class leader when the leader's
   definition dominates them. *)

type rewrite =
  | Keep (* emit the instruction *)
  | Use_const of int
  | Use_value of int (* old value id whose new copy should be used *)

let plan_rewrites (st : Pgvn.State.t) =
  let f = st.Pgvn.State.f and dom = Pgvn.State.dom st in
  let n = Ir.Func.num_instrs f in
  let pos = Array.make n 0 in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    Array.iteri (fun k i -> pos.(i) <- k) (Ir.Func.block f b).Ir.Func.instrs
  done;
  let def_dominates ~def ~v =
    let db = Ir.Func.block_of_instr f def and vb = Ir.Func.block_of_instr f v in
    if db = vb then pos.(def) < pos.(v) else Analysis.Dom.strictly_dominates dom db vb
  in
  Array.init n (fun v ->
      let ins = Ir.Func.instr f v in
      if not (Ir.Func.defines_value ins) then Keep
      else if Pgvn.Driver.value_unreachable st v then Keep (* dropped with its block *)
      else
        match Pgvn.Driver.value_constant st v with
        | Some c -> Use_const c
        | None -> (
            match (Pgvn.State.cls st st.Pgvn.State.class_of.(v)).Pgvn.State.leader with
            | Pgvn.State.Lvalue l when l <> v && def_dominates ~def:l ~v -> Use_value l
            | _ -> Keep))

(* Rebuild, leaving an audit trail: one {!Validate.Witness} per rewrite
   decision (constant fold, leader replacement, φ collapse, dropped edge or
   block), phrased in the input function's ids so the translation validator
   can replay them. [f] must be the function [st] analyzed: its dominators
   and RPO are read from the state. *)
let rebuild_witnessed (st : Pgvn.State.t) (f : Ir.Func.t) :
    Ir.Func.t * Validate.Witness.t list =
  if f != st.Pgvn.State.f then
    invalid_arg "Apply.rebuild: the function is not the one the GVN state analyzed";
  let witnesses = ref [] in
  let witness w = witnesses := w :: !witnesses in
  let rewrites = plan_rewrites st in
  let nb = Ir.Func.num_blocks f in
  let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
  (* New block ids for reachable blocks, in original order (entry stays 0). *)
  let block_map = Array.make nb (-1) in
  for b = 0 to nb - 1 do
    if Pgvn.State.block_reachable st b then block_map.(b) <- Ir.Builder.add_block bld
    else witness (Validate.Witness.Drop_block { block = b })
  done;
  let value_map = Array.make (Ir.Func.num_instrs f) (-1) in
  (* Constants materialize once, in the entry block. *)
  let const_cache = Hashtbl.create 16 in
  let const_value c =
    match Hashtbl.find_opt const_cache c with
    | Some v -> v
    | None ->
        let v = Ir.Builder.const bld block_map.(Ir.Func.entry) c in
        Hashtbl.replace const_cache c v;
        v
  in
  (* Single-live-argument φs collapse to their argument: recorded here and
     consulted by [resolve], which works both during emission (the alias is
     registered before any dominated use is emitted) and afterwards. *)
  let alias = Hashtbl.create 16 in
  let rec resolve v =
    match rewrites.(v) with
    | Use_const c -> const_value c
    | Use_value l -> resolve l
    | Keep -> (
        match Hashtbl.find_opt alias v with
        | Some a -> resolve a
        | None ->
            if value_map.(v) < 0 then
              invalid_arg (Printf.sprintf "Apply.rebuild: v%d used before definition" v);
            value_map.(v))
  in
  (* φ arguments are wired per incoming edge once all edges exist. *)
  let phi_fixups = ref [] in
  let emit_block b =
    let nb' = block_map.(b) in
    let blk = Ir.Func.block f b in
    Array.iter
      (fun i ->
        let ins = Ir.Func.instr f i in
        let cid = st.Pgvn.State.class_of.(i) in
        match rewrites.(i) with
        | Use_const c ->
            (* Rematerializing a Const as itself is not a semantic rewrite. *)
            if ins <> Ir.Func.Const c then
              witness (Validate.Witness.Fold_const { v = i; c; cid })
        | Use_value l -> witness (Validate.Witness.Replace { v = i; leader = l; cid })
        | Keep -> (
            match ins with
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
                let live =
                  Array.to_list blk.Ir.Func.preds
                  |> List.mapi (fun ix e -> (e, args.(ix)))
                  |> List.filter (fun (e, _) -> Pgvn.State.edge_reachable st e)
                in
                (match live with
                | [] -> invalid_arg "Apply.rebuild: phi with no live arguments"
                | [ (e, a) ] ->
                    (* Single live incoming edge: the φ is the argument. The
                       argument's definition dominates the sole predecessor,
                       hence this block. *)
                    witness (Validate.Witness.Collapse_phi { phi = i; arg = a; kept_edge = e });
                    Hashtbl.replace alias i a
                | live ->
                    let p = Ir.Builder.phi bld nb' in
                    value_map.(i) <- p;
                    phi_fixups := (p, live) :: !phi_fixups)
            | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ()))
      blk.Ir.Func.instrs
  in
  (* Emit in RPO so operand definitions (which dominate their uses) are
     always emitted before the instructions that resolve them. *)
  Array.iter
    (fun b -> if block_map.(b) >= 0 then emit_block b)
    (Pgvn.State.rpo st).Analysis.Rpo.order;
  (* Terminators: create edges (only reachable ones), remembering the new
     edge id that corresponds to each old reachable edge. *)
  let edge_map = Array.make (Ir.Func.num_edges f) (-1) in
  for b = 0 to nb - 1 do
    if block_map.(b) >= 0 then begin
      let nb' = block_map.(b) in
      let blk = Ir.Func.block f b in
      Array.iter
        (fun e ->
          if not (Pgvn.State.edge_reachable st e) then
            witness (Validate.Witness.Drop_edge { edge = e }))
        blk.Ir.Func.succs;
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump ->
          let e = blk.Ir.Func.succs.(0) in
          edge_map.(e) <- Ir.Builder.jump bld nb' ~dst:block_map.((Ir.Func.edge f e).Ir.Func.dst)
      | Ir.Func.Return v -> Ir.Builder.ret bld nb' (resolve v)
      | Ir.Func.Branch c -> (
          let et = blk.Ir.Func.succs.(0) and ef = blk.Ir.Func.succs.(1) in
          let rt = Pgvn.State.edge_reachable st et and rf = Pgvn.State.edge_reachable st ef in
          match (rt, rf) with
          | true, true ->
              let dt = block_map.((Ir.Func.edge f et).Ir.Func.dst) in
              let df = block_map.((Ir.Func.edge f ef).Ir.Func.dst) in
              let net, nef = Ir.Builder.branch bld nb' (resolve c) ~ift:dt ~iff:df in
              edge_map.(et) <- net;
              edge_map.(ef) <- nef
          | true, false ->
              edge_map.(et) <-
                Ir.Builder.jump bld nb' ~dst:block_map.((Ir.Func.edge f et).Ir.Func.dst)
          | false, true ->
              edge_map.(ef) <-
                Ir.Builder.jump bld nb' ~dst:block_map.((Ir.Func.edge f ef).Ir.Func.dst)
          | false, false -> invalid_arg "Apply.rebuild: branch with no live edge")
      | Ir.Func.Switch (c, cases) -> (
          (* Keep reachable case edges only. If the default is unreachable,
             the last reachable case is promoted to default (the analysis
             guarantees the scrutinee hits some kept case). *)
          let ncases = Array.length cases in
          let live_cases = ref [] in
          for ix = 0 to ncases - 1 do
            let e = blk.Ir.Func.succs.(ix) in
            if Pgvn.State.edge_reachable st e then
              live_cases := (cases.(ix), e) :: !live_cases
          done;
          let live_cases = List.rev !live_cases in
          let de = blk.Ir.Func.succs.(ncases) in
          let default_live = Pgvn.State.edge_reachable st de in
          let target e = block_map.((Ir.Func.edge f e).Ir.Func.dst) in
          match (live_cases, default_live) with
          | [], false -> invalid_arg "Apply.rebuild: switch with no live edge"
          | [], true -> edge_map.(de) <- Ir.Builder.jump bld nb' ~dst:(target de)
          | [ (_, e) ], false -> edge_map.(e) <- Ir.Builder.jump bld nb' ~dst:(target e)
          | live, default_live ->
              let keep, promoted =
                if default_live then (live, None)
                else
                  let rec split acc = function
                    | [ last ] -> (List.rev acc, last)
                    | x :: rest -> split (x :: acc) rest
                    | [] -> assert false
                  in
                  let init, last = split [] live in
                  (init, Some last)
              in
              let case_args = List.map (fun (k, e) -> (k, target e)) keep in
              let default_target =
                match promoted with Some (_, e) -> target e | None -> target de
              in
              let case_edges, new_default =
                Ir.Builder.switch bld nb' (resolve c) ~cases:case_args ~default:default_target
              in
              List.iteri (fun i (_, e) -> edge_map.(e) <- List.nth case_edges i) keep;
              (match promoted with
              | Some (_, e) -> edge_map.(e) <- new_default
              | None -> edge_map.(de) <- new_default))
      | _ -> invalid_arg "Apply.rebuild: missing terminator"
    end
  done;
  (* Now wire φ arguments through the new edges. *)
  List.iter
    (fun (p, live) ->
      List.iter
        (fun (e, a) -> Ir.Builder.set_phi_arg bld ~phi:p ~edge:edge_map.(e) (resolve a))
        live)
    !phi_fixups;
  (Ir.Builder.finish bld, List.rev !witnesses)

let rebuild st f = fst (rebuild_witnessed st f)

(* Run GVN under [config] and rebuild the optimized function. *)
let optimize ?(config = Pgvn.Config.full) f =
  let st = Pgvn.Driver.run config f in
  rebuild st f
