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
  let reach_block = st.Pgvn.State.reach_block and reach_edge = st.Pgvn.State.reach_edge in
  Array.iteri
    (fun b r -> if not r then witness (Validate.Witness.Drop_block { block = b }))
    reach_block;
  (* Constants materialize once, in the entry block, at their first use. *)
  let consts = Hashtbl.create 16 in
  let subst c _ v =
    match rewrites.(v) with
    | Use_const k -> (
        match Hashtbl.find_opt consts k with
        | Some v' -> v'
        | None ->
            let v' = Ir.Copy.const c ~into:Ir.Func.entry k in
            Hashtbl.replace consts k v';
            v')
    | Use_value _ | Keep -> Ir.Copy.value c v
  in
  let c = Ir.Copy.create ~keep:reach_block ~live:reach_edge ~subst f in
  (* Replaced values and collapsed φs become aliases before any use they
     dominate is emitted. *)
  let emit_block b =
    let blk = Ir.Func.block f b in
    Array.iter
      (fun i ->
        let ins = Ir.Func.instr f i in
        let cid = st.Pgvn.State.class_of.(i) in
        match rewrites.(i) with
        | Use_const k ->
            (* Rematerializing a Const as itself is not a semantic rewrite. *)
            if ins <> Ir.Func.Const k then
              witness (Validate.Witness.Fold_const { v = i; c = k; cid })
        | Use_value l ->
            witness (Validate.Witness.Replace { v = i; leader = l; cid });
            Ir.Copy.alias c i l
        | Keep -> (
            match ins with
            | Ir.Func.Phi args -> (
                let preds = blk.Ir.Func.preds in
                let live =
                  List.init (Array.length preds) Fun.id
                  |> List.filter (fun ix -> reach_edge.(preds.(ix)))
                in
                match live with
                | [] -> invalid_arg "Apply.rebuild: phi with no live arguments"
                | [ ix ] ->
                    (* Single live incoming edge: the φ is the argument. The
                       argument's definition dominates the sole predecessor,
                       hence this block. *)
                    witness
                      (Validate.Witness.Collapse_phi
                         { phi = i; arg = args.(ix); kept_edge = preds.(ix) });
                    Ir.Copy.alias c i args.(ix)
                | _ -> Ir.Copy.instr c ~into:b i)
            | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ()
            | _ -> Ir.Copy.instr c ~into:b i))
      blk.Ir.Func.instrs
  in
  (* Emit in RPO so operand definitions (which dominate their uses) are
     always emitted before the instructions that resolve them. *)
  Array.iter
    (fun b -> if reach_block.(b) then emit_block b)
    (Pgvn.State.rpo st).Analysis.Rpo.order;
  (* Dead out-edges of kept blocks, which [finish] drops from their
     terminators. *)
  for b = 0 to Ir.Func.num_blocks f - 1 do
    if reach_block.(b) then
      Array.iter
        (fun e -> if not reach_edge.(e) then witness (Validate.Witness.Drop_edge { edge = e }))
        (Ir.Func.block f b).Ir.Func.succs
  done;
  (Ir.Copy.finish c, List.rev !witnesses)

let rebuild st f = fst (rebuild_witnessed st f)

(* Run GVN under [config] and rebuild the optimized function. *)
let optimize ?(config = Pgvn.Config.full) f =
  let st = Pgvn.Driver.run config f in
  rebuild st f
