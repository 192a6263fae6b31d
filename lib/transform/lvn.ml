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
    fired = ignore;
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
              match Rules.Engine.rewrite_unop Rules.Engine.shared rules_subject op ra with
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
                Rules.Engine.rewrite_binop Rules.Engine.shared rules_subject op (rep a)
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

(* Apply the rewrites: redundant instructions become aliases of the value
   replacing them; instructions that folded to a constant are replaced by
   [Const]. *)
let run (f : Ir.Func.t) : Ir.Func.t =
  let rw, const_of = rewrites f in
  (* A block the entry does not reach is dropped. *)
  let ctx = Analysis.Ctx.create f in
  let rpo = Analysis.Ctx.rpo ctx f in
  let c = Ir.Copy.create ~keep:(Analysis.Graph.reachable (Analysis.Ctx.graph ctx f)) f in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          match rw.(i) with
          | Some w -> Ir.Copy.alias c i w
          | None when Ir.Func.defines_value (Ir.Func.instr f i) -> (
              match const_of.(i) with
              | Some k -> Ir.Copy.bind c i (Ir.Copy.const c ~into:b k)
              | None -> Ir.Copy.instr c ~into:b i)
          | None -> ())
        (Ir.Func.block f b).Ir.Func.instrs)
    rpo.Analysis.Rpo.order;
  Ir.Copy.finish c
