(* Wegman–Zadeck sparse conditional constant propagation [16], implemented
   independently of the GVN engine (classic two-worklist formulation over
   the constant lattice ⊤ / Const c / ⊥). Used to cross-validate the GVN
   engine's SCCP emulation preset (§2.9). *)

type lattice = Top | Const of int | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y when x = y -> a
  | Const _, Const _ -> Bottom
  | Bottom, _ | _, Bottom -> Bottom

let equal_lattice a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> x = y
  | (Top | Const _ | Bottom), _ -> false

type result = {
  value : lattice array; (* per value *)
  edge_executable : bool array;
  block_executable : bool array;
}

let run (f : Ir.Func.t) : result =
  let ni = Ir.Func.num_instrs f in
  let value = Array.make ni Top in
  let edge_exec = Array.make (Ir.Func.num_edges f) false in
  let block_exec = Array.make (Ir.Func.num_blocks f) false in
  let def_use = Ir.Func.def_use f in
  let ssa_work = Queue.create () in
  let flow_work = Queue.create () in
  let lower v l =
    let m = meet value.(v) l in
    if not (equal_lattice m value.(v)) then begin
      value.(v) <- m;
      Ir.Func.iter_users def_use v (fun u -> Queue.add u ssa_work)
    end
  in
  let eval_instr i =
    let b = Ir.Func.block_of_instr f i in
    if block_exec.(b) then
      match Ir.Func.instr f i with
      | Ir.Func.Const n -> lower i (Const n)
      | Ir.Func.Param _ | Ir.Func.Opaque _ -> lower i Bottom
      | Ir.Func.Unop (op, a) -> (
          match value.(a) with
          | Top -> ()
          | Const c -> lower i (Const (Ir.Types.eval_unop op c))
          | Bottom -> lower i Bottom)
      | Ir.Func.Binop (op, a, b') -> (
          match (value.(a), value.(b')) with
          | Const x, Const y when not (Ir.Types.binop_can_trap op x y) ->
              lower i (Const (Ir.Types.eval_binop op x y))
          | Const x, Const y ->
              ignore (x, y);
              lower i Bottom (* would trap: not a constant *)
          | Top, _ | _, Top -> ()
          | _ -> lower i Bottom)
      | Ir.Func.Cmp (op, a, b') -> (
          match (value.(a), value.(b')) with
          | Const x, Const y -> lower i (Const (Ir.Types.eval_cmp op x y))
          | Top, _ | _, Top -> ()
          | _ -> lower i Bottom)
      | Ir.Func.Phi args ->
          let preds = (Ir.Func.block f b).Ir.Func.preds in
          let l = ref Top in
          Array.iteri
            (fun ix e -> if edge_exec.(e) then l := meet !l value.(args.(ix)))
            preds;
          lower i !l
      | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ()
  in
  let eval_terminator b =
    let blk = Ir.Func.block f b in
    match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
    | Ir.Func.Jump -> Queue.add blk.Ir.Func.succs.(0) flow_work
    | Ir.Func.Branch c -> (
        match value.(c) with
        | Top -> ()
        | Const k -> Queue.add (if k <> 0 then blk.Ir.Func.succs.(0) else blk.Ir.Func.succs.(1)) flow_work
        | Bottom ->
            Queue.add blk.Ir.Func.succs.(0) flow_work;
            Queue.add blk.Ir.Func.succs.(1) flow_work)
    | Ir.Func.Switch (c, cases) -> (
        let succs = blk.Ir.Func.succs in
        match value.(c) with
        | Top -> ()
        | Const k ->
            let matched = ref (Array.length cases) in
            Array.iteri (fun i case -> if case = k then matched := i) cases;
            Queue.add succs.(!matched) flow_work
        | Bottom -> Array.iter (fun e -> Queue.add e flow_work) succs)
    | Ir.Func.Return _ -> ()
    | _ -> ()
  in
  block_exec.(Ir.Func.entry) <- true;
  Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.block f Ir.Func.entry).Ir.Func.instrs;
  eval_terminator Ir.Func.entry;
  (* The branch instruction is itself a def-use consumer of its condition,
     so a lowered condition re-enqueues the terminator via [ssa_work]. *)
  while not (Queue.is_empty flow_work && Queue.is_empty ssa_work) do
    while not (Queue.is_empty flow_work) do
      let e = Queue.pop flow_work in
      if not edge_exec.(e) then begin
        edge_exec.(e) <- true;
        let d = (Ir.Func.edge f e).Ir.Func.dst in
        if not block_exec.(d) then begin
          block_exec.(d) <- true;
          Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.block f d).Ir.Func.instrs;
          eval_terminator d
        end
        else
          (* New executable edge into an executable block: φs re-meet. *)
          Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.phis_of_block f d)
      end
    done;
    while not (Queue.is_empty ssa_work) do
      let i = Queue.pop ssa_work in
      let b = Ir.Func.block_of_instr f i in
      if Ir.Func.defines_value (Ir.Func.instr f i) then eval_instr i
      else if block_exec.(b) then eval_terminator b
    done
  done;
  { value; edge_executable = edge_exec; block_executable = block_exec }
