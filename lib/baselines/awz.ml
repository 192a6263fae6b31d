(* Alpern–Wegman–Zadeck optimistic partition-based value numbering [1],
   implemented independently of the hash-based GVN engine.

   The value graph: one node per SSA value, labelled by its operator
   (constants by their value, parameters by index, opaque calls by tag,
   φ-functions by their block) with ordered edges to operand nodes. The
   initial partition groups nodes by label; refinement splits classes until
   congruent nodes have position-wise congruent operands. This is the
   optimistic fixed point: values stay together unless split apart.

   Note: the partition formulation does not perform the hash-based
   reduction φ(x, …, x) → x, so its result can be strictly coarser-grained
   (fewer congruences) than the engine's AWZ emulation; the test suite
   checks refinement in that direction. *)

type label =
  | Lconst of int
  | Lparam of int
  | Lopq of int * int (* tag, arity *)
  | Lphi of int * int (* block, arity *)
  | Lunop of Ir.Types.unop
  | Lbinop of Ir.Types.binop
  | Lcmp of Ir.Types.cmp

(* Labels are interned per run so the initial-partition table probes by
   precomputed tag rather than rehashing the label structure. *)
module HL = Util.Hashcons.Make (struct
  type t = label

  let equal (a : label) (b : label) = a = b
  let hash (l : label) = Hashtbl.hash l
end)

let label_of f i =
  match Ir.Func.instr f i with
  | Ir.Func.Const n -> Some (Lconst n)
  | Ir.Func.Param k -> Some (Lparam k)
  | Ir.Func.Opaque (tag, args) -> Some (Lopq (tag, Array.length args))
  | Ir.Func.Phi args -> Some (Lphi (Ir.Func.block_of_instr f i, Array.length args))
  | Ir.Func.Unop (op, _) -> Some (Lunop op)
  | Ir.Func.Binop (op, _, _) -> Some (Lbinop op)
  | Ir.Func.Cmp (op, _, _) -> Some (Lcmp op)
  | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> None

(* Result: class id per value (-1 for non-values). Congruent iff equal. *)
let run (f : Ir.Func.t) : int array =
  let ni = Ir.Func.num_instrs f in
  let cls = Array.make ni (-1) in
  (* Initial partition by label. *)
  let next_class = ref 0 in
  let arena = HL.create ~size:64 () in
  let by_label : int HL.Tbl.t = HL.Tbl.create 64 in
  for i = 0 to ni - 1 do
    match label_of f i with
    | None -> ()
    | Some l ->
        let cl = HL.hashcons arena l in
        (match HL.Tbl.find_opt by_label cl with
        | Some c -> cls.(i) <- c
        | None ->
            let c = !next_class in
            incr next_class;
            HL.Tbl.replace by_label cl c;
            cls.(i) <- c)
  done;
  (* Operand arrays per value, and users-by-position for splitting. *)
  let ops = Array.map Ir.Func.operands f.Ir.Func.instrs in
  let max_arity =
    Array.fold_left (fun m o -> max m (Array.length o)) 0 ops
  in
  (* Iterative refinement to a fixed point. Classes are split whenever two
     members disagree on the class of the operand at some position. This is
     the O(n²)-ish formulation; Hopcroft's smaller-half strategy gives
     O(n log n) but the fixed point is identical, which is what the
     cross-validation needs. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for pos = 0 to max_arity - 1 do
      (* Snapshot each value's (class, operand-class-at-pos) key, then split
         every class whose members disagree on the operand class. *)
      let keys = Array.make ni None in
      for i = 0 to ni - 1 do
        if cls.(i) >= 0 && Array.length ops.(i) > pos then
          keys.(i) <- Some (cls.(i), cls.(ops.(i).(pos)))
      done;
      let group_sizes = Hashtbl.create 64 in
      let class_sizes = Hashtbl.create 64 in
      Array.iter
        (function
          | None -> ()
          | Some ((c, _) as key) ->
              Hashtbl.replace group_sizes key
                (1 + Option.value ~default:0 (Hashtbl.find_opt group_sizes key));
              Hashtbl.replace class_sizes c
                (1 + Option.value ~default:0 (Hashtbl.find_opt class_sizes c)))
        keys;
      let renames = Hashtbl.create 64 in
      for i = 0 to ni - 1 do
        match keys.(i) with
        | None -> ()
        | Some ((c, _) as key) ->
            if Hashtbl.find group_sizes key < Hashtbl.find class_sizes c then begin
              let c' =
                match Hashtbl.find_opt renames key with
                | Some c' -> c'
                | None ->
                    let c' = !next_class in
                    incr next_class;
                    Hashtbl.replace renames key c';
                    c'
              in
              cls.(i) <- c';
              changed := true
            end
      done
    done
  done;
  cls
