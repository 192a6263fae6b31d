(* The SSA def-use chains as one array of users per value, the form the
   engine used before {!Ir.Func.def_use} went flat. Kept only as the
   reference the flat chains are checked against. *)

let compute (f : Ir.Func.t) =
  let n = Ir.Func.num_instrs f in
  let counts = Array.make n 0 in
  Array.iter
    (fun ins -> Ir.Func.iter_operands (fun v -> counts.(v) <- counts.(v) + 1) ins)
    f.Ir.Func.instrs;
  let users = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i ins ->
      Ir.Func.iter_operands
        (fun v ->
          users.(v).(fill.(v)) <- i;
          fill.(v) <- fill.(v) + 1)
        ins)
    f.Ir.Func.instrs;
  users

(* The chains [Pgvn.State] keeps: users in blocks the RPO lacks are left
   out, since the sweep never evaluates them. *)
let swept (f : Ir.Func.t) (rpo : Analysis.Rpo.t) du =
  if Array.length rpo.Analysis.Rpo.order = Ir.Func.num_blocks f then du
  else
    let swept i = rpo.Analysis.Rpo.number.(Ir.Func.block_of_instr f i) >= 0 in
    Array.map (fun us -> Array.of_list (List.filter swept (Array.to_list us))) du
