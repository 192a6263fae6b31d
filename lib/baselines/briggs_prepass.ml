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
let facts_of (f : Ir.Func.t) =
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
  facts

(* Rewrite dominated uses. Returns the transformed function. *)
let run (f : Ir.Func.t) : Ir.Func.t =
  let facts = facts_of f in
  if Hashtbl.length facts = 0 then f
  else begin
    let ctx = Analysis.Ctx.create f in
    let dom = Analysis.Ctx.dom ctx f in
    (* A use of [v] in a region of one of its facts reads the constant,
       materialized once in the region root; a φ argument is used at the
       source of the edge carrying it. *)
    let const_cache = Hashtbl.create 8 in
    let subst c use v =
      match
        List.find_opt
          (fun (root, _) -> Analysis.Dom.dominates dom root use)
          (Hashtbl.find_all facts v)
      with
      | Some (root, n) -> (
          match Hashtbl.find_opt const_cache (root, n) with
          | Some v' -> v'
          | None ->
              let v' = Ir.Copy.const c ~into:root n in
              Hashtbl.replace const_cache (root, n) v';
              v')
      | None -> Ir.Copy.value c v
    in
    (* A block the entry does not reach is dropped. *)
    let keep = Analysis.Graph.reachable (Analysis.Ctx.graph ctx f) in
    let c = Ir.Copy.create ~keep ~subst f in
    Array.iter
      (fun b ->
        Array.iter
          (fun i -> if Ir.Func.defines_value (Ir.Func.instr f i) then Ir.Copy.instr c ~into:b i)
          (Ir.Func.block f b).Ir.Func.instrs)
      (Analysis.Ctx.rpo ctx f).Analysis.Rpo.order;
    Ir.Copy.finish c
  end
