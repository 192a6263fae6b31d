(* The eager reference for the practical variant's touch propagation
   (Figure 5): touching downstream of a block walks the whole RPO order and
   sets the flags of every block at or after it, at once. It costs O(blocks
   + instrs) per edge, and is kept only as the oracle that pins
   [Pgvn.State]'s watermark to it. *)

type t = {
  f : Ir.Func.t;
  rpo : Analysis.Rpo.t;
  def_use : int array array;
  touched_instr : bool array;
  touched_block : bool array;
  mutable touched_count : int;
  mutable instr_touches : int;
  mutable block_touches : int;
}

let create f rpo =
  {
    f;
    rpo;
    def_use = Def_use_oracle.compute f;
    touched_instr = Array.make (Ir.Func.num_instrs f) false;
    touched_block = Array.make (Ir.Func.num_blocks f) false;
    touched_count = 0;
    instr_touches = 0;
    block_touches = 0;
  }

let touch_instr t i =
  if not t.touched_instr.(i) then begin
    t.touched_instr.(i) <- true;
    t.touched_count <- t.touched_count + 1;
    t.instr_touches <- t.instr_touches + 1
  end

let touch_block t b =
  if not t.touched_block.(b) then begin
    t.touched_block.(b) <- true;
    t.touched_count <- t.touched_count + 1;
    t.block_touches <- t.block_touches + 1
  end

let untouch_instr t i =
  if t.touched_instr.(i) then begin
    t.touched_instr.(i) <- false;
    t.touched_count <- t.touched_count - 1
  end

let untouch_block t b =
  if t.touched_block.(b) then begin
    t.touched_block.(b) <- false;
    t.touched_count <- t.touched_count - 1
  end

let touch_users t v = Array.iter (touch_instr t) t.def_use.(v)
let touch_block_instrs t b = Array.iter (touch_instr t) (Ir.Func.block t.f b).Ir.Func.instrs

let touch_downstream_rpo t d =
  let dn = t.rpo.Analysis.Rpo.number.(d) in
  if dn >= 0 then
    Array.iteri
      (fun n b ->
        if n >= dn then begin
          touch_block t b;
          touch_block_instrs t b
        end)
      t.rpo.Analysis.Rpo.order

let propagate_change_in_edge t e = touch_downstream_rpo t (Ir.Func.edge t.f e).Ir.Func.dst
let has_work t = t.touched_count > 0
