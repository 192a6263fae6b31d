(* The SSA discipline, as structured diagnostics:

   - every instruction id is laid out exactly once, in the block its
     [instr_block] entry names (single definition);
   - φs sit at the head of their block, with one argument per incoming edge;
   - operands name value-defining instructions;
   - every non-φ use is dominated by its definition, and every φ argument is
     available at the end of the source block of the edge carrying it;
   - no reachable instruction consumes a value defined in an unreachable
     block.

   Assumes {!Cfg_check} reported no errors (the dominator computation walks
   the successor lists); still guards every operand index so a bad operand
   yields a diagnostic, not an exception. *)

open Ir.Func

let run (f : Ir.Func.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ni = num_instrs f in
  (* Layout: single definition and instr_block agreement. *)
  let occurs = Array.make ni 0 in
  Array.iteri
    (fun b (blk : block) ->
      Array.iter
        (fun i ->
          if i >= 0 && i < ni then begin
            occurs.(i) <- occurs.(i) + 1;
            if block_of_instr f i <> b then
              add
                (Diagnostic.error ~check:"ssa-instr-block" ~loc:(Diagnostic.Instr i)
                   "v%d is laid out in b%d but instr_block records b%d" i b
                   (block_of_instr f i))
          end)
        blk.instrs)
    f.blocks;
  for i = 0 to ni - 1 do
    if occurs.(i) > 1 then
      add
        (Diagnostic.error ~check:"ssa-single-def" ~loc:(Diagnostic.Instr i)
           "v%d is defined %d times" i occurs.(i))
    else if occurs.(i) = 0 then
      add
        (Diagnostic.error ~check:"ssa-orphan-instr" ~loc:(Diagnostic.Instr i)
           "v%d appears in the instruction table but in no block" i)
  done;
  (* φ placement and arity. *)
  Array.iteri
    (fun b (blk : block) ->
      let seen_nonphi = ref false in
      Array.iter
        (fun i ->
          if i >= 0 && i < ni then
            match instr f i with
            | Phi args ->
                if !seen_nonphi then
                  add
                    (Diagnostic.error ~check:"ssa-phi-placement" ~loc:(Diagnostic.Instr i)
                       "φ v%d in b%d appears after a non-φ instruction" i b);
                if Array.length args <> Array.length blk.preds then
                  add
                    (Diagnostic.error ~check:"ssa-phi-arity" ~loc:(Diagnostic.Instr i)
                       "φ v%d has %d arguments for %d predecessor edges of b%d" i
                       (Array.length args) (Array.length blk.preds) b)
            | _ -> seen_nonphi := true)
        blk.instrs)
    f.blocks;
  (* Operand validity. *)
  let operand_ok i v =
    if v < 0 || v >= ni then begin
      add
        (Diagnostic.error ~check:"ssa-operand-range" ~loc:(Diagnostic.Instr i)
           "v%d names operand %d, outside the %d instructions" i v ni);
      false
    end
    else if not (defines_value (instr f v)) then begin
      add
        (Diagnostic.error ~check:"ssa-operand-kind" ~loc:(Diagnostic.Instr i)
           "v%d uses v%d, which defines no value" i v);
      false
    end
    else true
  in
  (* Dominance. *)
  let dom = Analysis.Ctx.dom (Analysis.Ctx.create f) f in
  let pos = Array.make ni 0 in
  for b = 0 to num_blocks f - 1 do
    Array.iteri (fun k i -> if i >= 0 && i < ni then pos.(i) <- k) (block f b).instrs
  done;
  let def_dominates_use ~def ~use_block ~use_pos =
    let db = block_of_instr f def in
    if db = use_block then pos.(def) < use_pos
    else Analysis.Dom.strictly_dominates dom db use_block
  in
  (* Report a dominance failure, distinguishing the unreachable-def case. *)
  let use_error ~what i v =
    let db = block_of_instr f v in
    if not (Analysis.Dom.reachable dom db) then
      add
        (Diagnostic.error ~check:"ssa-unreachable-def" ~loc:(Diagnostic.Instr i)
           "%s v%d of reachable v%d is defined in unreachable b%d" what v i db)
    else
      add
        (Diagnostic.error ~check:(if what = "φ argument" then "ssa-phi-arg-dominance" else "ssa-dominance")
           ~loc:(Diagnostic.Instr i) "%s v%d (defined in b%d) does not reach its use in v%d" what
           v (block_of_instr f v) i)
  in
  for i = 0 to ni - 1 do
    if occurs.(i) = 1 then begin
      let b = block_of_instr f i in
      if Analysis.Dom.reachable dom b then
        match instr f i with
        | Phi args ->
            let preds = (block f b).preds in
            if Array.length args = Array.length preds then
              Array.iteri
                (fun ix v ->
                  if operand_ok i v then begin
                    let src = (edge f preds.(ix)).src in
                    if Analysis.Dom.reachable dom src then
                      let n = Array.length (block f src).instrs in
                      if not (def_dominates_use ~def:v ~use_block:src ~use_pos:n) then
                        use_error ~what:"φ argument" i v
                  end)
                args
        | ins ->
            iter_operands
              (fun v ->
                if operand_ok i v then
                  if not (def_dominates_use ~def:v ~use_block:b ~use_pos:pos.(i)) then
                    use_error ~what:"operand" i v)
              ins
    end
  done;
  List.rev !diags
