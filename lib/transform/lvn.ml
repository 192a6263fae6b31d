(* Local (per-block) value numbering with constant folding — the cheap
   early pass a production pipeline runs before global value numbering.
   Purely intra-block: replaces an instruction by an earlier identical one
   in the same block, or by a constant. *)

type vexpr =
  | Vconst of int
  | Vunop of Ir.Types.unop * int
  | Vbinop of Ir.Types.binop * int * int
  | Vcmp of Ir.Types.cmp * int * int
  | Vopq of int * int list

(* Operand view for the shared rule table (lib/rules): a value id or its
   known constant. The adapter is deliberately shallow — LVN has no
   expression language beyond existing value ids, so any rule whose
   right-hand side would need a fresh compound node is declined. *)
type lrep = Lv of int | Lc of int

let rules_subject : lrep Rules.Engine.subject =
  {
    Rules.Engine.view =
      (function Lc c -> Rules.Engine.Sconst c | Lv _ -> Rules.Engine.Satom);
    equal = (fun a b -> a = b);
    bconst = (fun c -> Lc c);
    bunop = (fun _ _ -> None);
    bbinop = (fun _ _ _ -> None);
    reduce = (fun _ -> None);
  }

(* Returns a per-value rewrite map: [Some w] means "use w instead". *)
let rewrites (f : Ir.Func.t) =
  let n = Ir.Func.num_instrs f in
  let rw = Array.make n None in
  let resolve v = match rw.(v) with Some w -> w | None -> v in
  let const_of = Array.make n None in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun i ->
        let key =
          match Ir.Func.instr f i with
          | Ir.Func.Const c ->
              const_of.(i) <- Some c;
              Some (Vconst c)
          | Ir.Func.Unop (op, a) -> (
              let a = resolve a in
              let ra = match const_of.(a) with Some c -> Lc c | None -> Lv a in
              match Rules.Engine.rewrite_unop (Rules.Engine.shared ()) rules_subject op ra with
              | Some (Lc c) ->
                  const_of.(i) <- Some c;
                  None
              | Some (Lv w) ->
                  rw.(i) <- Some w;
                  None
              | None -> Some (Vunop (op, a)))
          | Ir.Func.Binop (op, a, b') -> (
              let a = resolve a and b' = resolve b' in
              let rep v = match const_of.(v) with Some c -> Lc c | None -> Lv v in
              match
                Rules.Engine.rewrite_binop (Rules.Engine.shared ()) rules_subject op (rep a)
                  (rep b')
              with
              | Some (Lc c) ->
                  const_of.(i) <- Some c;
                  None
              | Some (Lv w) ->
                  rw.(i) <- Some w;
                  None
              | None ->
                  if Ir.Types.binop_commutative op && b' < a then Some (Vbinop (op, b', a))
                  else Some (Vbinop (op, a, b')))
          | Ir.Func.Cmp (op, a, b') ->
              let a = resolve a and b' = resolve b' in
              (match (const_of.(a), const_of.(b')) with
              | Some ca, Some cb ->
                  const_of.(i) <- Some (Ir.Types.eval_cmp op ca cb);
                  None
              | _ -> Some (Vcmp (op, a, b')))
          | Ir.Func.Opaque (tag, args) ->
              Some (Vopq (tag, List.map resolve (Array.to_list args)))
          | Ir.Func.Param _ | Ir.Func.Phi _ | Ir.Func.Jump | Ir.Func.Branch _
          | Ir.Func.Switch _ | Ir.Func.Return _ ->
              None
        in
        match key with
        | None -> ()
        | Some key -> (
            match Hashtbl.find_opt tbl key with
            | Some w -> rw.(i) <- Some w
            | None -> Hashtbl.replace tbl key i))
      (Ir.Func.block f b).Ir.Func.instrs
  done;
  (rw, const_of)

(* Apply the rewrites: redundant instructions are dropped; instructions that
   folded to a constant are replaced by [Const]. *)
let run (f : Ir.Func.t) : Ir.Func.t =
  let rw, const_of = rewrites f in
  let nb = Ir.Func.num_blocks f in
  let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
  for _ = 0 to nb - 1 do
    ignore (Ir.Builder.add_block bld)
  done;
  let value_map = Array.make (Ir.Func.num_instrs f) (-1) in
  let rec resolve v =
    match rw.(v) with
    | Some w -> resolve w
    | None ->
        if value_map.(v) < 0 then invalid_arg "Lvn.run: unresolved value";
        value_map.(v)
  in
  let rpo = Analysis.Ctx.rpo (Analysis.Ctx.create f) f in
  let phis = ref [] in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          match rw.(i) with
          | Some _ -> ()
          | None -> (
              match Ir.Func.instr f i with
              | Ir.Func.Const c -> value_map.(i) <- Ir.Builder.const bld b c
              | Ir.Func.Param k -> value_map.(i) <- Ir.Builder.param bld b k
              | Ir.Func.Phi args ->
                  let p = Ir.Builder.phi bld b in
                  value_map.(i) <- p;
                  phis := (b, p, args) :: !phis
              | ins -> (
                  match const_of.(i) with
                  | Some c -> value_map.(i) <- Ir.Builder.const bld b c
                  | None -> (
                      match ins with
                      | Ir.Func.Unop (op, a) ->
                          value_map.(i) <- Ir.Builder.unop bld b op (resolve a)
                      | Ir.Func.Binop (op, a, b') ->
                          value_map.(i) <- Ir.Builder.binop bld b op (resolve a) (resolve b')
                      | Ir.Func.Cmp (op, a, b') ->
                          value_map.(i) <- Ir.Builder.cmp bld b op (resolve a) (resolve b')
                      | Ir.Func.Opaque (tag, args) ->
                          value_map.(i) <-
                            Ir.Builder.opaque ~tag bld b (List.map resolve (Array.to_list args))
                      | _ -> ()))))
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
          Ir.Builder.branch bld b (resolve c)
            ~ift:(Ir.Func.edge f blk.Ir.Func.succs.(0)).Ir.Func.dst
            ~iff:(Ir.Func.edge f blk.Ir.Func.succs.(1)).Ir.Func.dst
        in
        edge_map.(blk.Ir.Func.succs.(0)) <- et;
        edge_map.(blk.Ir.Func.succs.(1)) <- ef
    | Ir.Func.Switch (c, cases) ->
        let case_args =
          Array.to_list (Array.mapi (fun ix k -> (k, (Ir.Func.edge f blk.Ir.Func.succs.(ix)).Ir.Func.dst)) cases)
        in
        let default = (Ir.Func.edge f blk.Ir.Func.succs.(Array.length cases)).Ir.Func.dst in
        let case_edges, default_edge = Ir.Builder.switch bld b (resolve c) ~cases:case_args ~default in
        List.iteri (fun ix e -> edge_map.(blk.Ir.Func.succs.(ix)) <- e) case_edges;
        edge_map.(blk.Ir.Func.succs.(Array.length cases)) <- default_edge
    | Ir.Func.Return v -> Ir.Builder.ret bld b (resolve v)
    | _ -> invalid_arg "Lvn.run: missing terminator"
  done;
  List.iter
    (fun (b, p, args) ->
      let preds = (Ir.Func.block f b).Ir.Func.preds in
      Array.iteri
        (fun ix e -> Ir.Builder.set_phi_arg bld ~phi:p ~edge:edge_map.(e) (resolve args.(ix)))
        preds)
    !phis;
  Ir.Builder.finish bld
