(* SSA construction from the register IR, after Cytron et al.: φ placement on
   iterated dominance frontiers followed by a dominator-tree renaming walk.

   Three φ-placement policies are provided because the paper (§3) observes
   that pruned SSA can reduce the effectiveness of global value numbering:
   - [Minimal]: φ at every iterated-dominance-frontier node of each def;
   - [Semi_pruned]: only for registers live across some block boundary
     (Briggs's "global" names);
   - [Pruned]: only where the register is live-in (full liveness analysis).

   Register copies ([Imov]) are coalesced away during renaming: they become
   pure renamings rather than SSA copy instructions. *)

type pruning = Minimal | Semi_pruned | Pruned

let pruning_to_string = function
  | Minimal -> "minimal"
  | Semi_pruned -> "semi-pruned"
  | Pruned -> "pruned"

(* One scan of the body: per register, the blocks that define it and the
   blocks where it is used before any definition in the same block
   (upward-exposed). [defd.(r) = b] stamps "already defined in b". *)
let def_use_blocks (c : Ir.Cir.t) =
  let nregs = c.Ir.Cir.nregs in
  let defs = Array.make nregs [] and uses = Array.make nregs [] in
  let defd = Array.make nregs (-1) and used = Array.make nregs (-1) in
  Array.iteri
    (fun b (blk : Ir.Cir.block) ->
      let use r =
        if defd.(r) <> b && used.(r) <> b then begin
          used.(r) <- b;
          uses.(r) <- b :: uses.(r)
        end
      in
      Array.iter
        (fun i ->
          Ir.Cir.iter_uses_rinstr use i;
          let d = Ir.Cir.def_of_rinstr i in
          if defd.(d) <> b then begin
            defd.(d) <- b;
            defs.(d) <- b :: defs.(d)
          end)
        blk.body;
      Ir.Cir.iter_uses_term use blk.term)
    c.Ir.Cir.blocks;
  (defs, uses)

let of_cir ?(pruning = Semi_pruned) (c : Ir.Cir.t) : Ir.Func.t =
  let c = Ir.Cir.prune_unreachable c in
  let g = Analysis.Graph.of_cir c in
  let dom = Analysis.Dom.compute g in
  let df = Analysis.Domfront.compute g dom in
  let n = Ir.Cir.num_blocks c in
  let nregs = c.Ir.Cir.nregs in
  let defs, uses = def_use_blocks c in
  (* φ placement on iterated dominance frontiers, one register at a time in
     ascending order. The three [n]-sized arrays are stamps holding the last
     register that marked a block, so nothing is cleared between registers:
     [onlist] (on the worklist; it holds only body definitions while the
     [Pruned] liveness walk reads it), [live] and [has_phi]. [phis.(b)]
     collects b's φ registers in descending order. *)
  let onlist = Array.make n (-1) and live = Array.make n (-1) in
  let has_phi = Array.make n (-1) in
  let phis = Array.make n [] in
  let pruned = pruning = Pruned in
  let place r =
    let work = ref [] in
    List.iter
      (fun b ->
        onlist.(b) <- r;
        work := b :: !work)
      defs.(r);
    (* [Pruned]: r is live-in at the blocks reached backward from its
       upward-exposed uses without crossing a body definition. A parameter's
       entry definition is not a body definition and does not stop the walk. *)
    if pruned then begin
      let rec walk = function
        | [] -> ()
        | b :: rest ->
            walk
              (Array.fold_left
                 (fun acc p ->
                   if live.(p) = r || onlist.(p) = r then acc
                   else begin
                     live.(p) <- r;
                     p :: acc
                   end)
                 rest g.Analysis.Graph.pred.(b))
      in
      List.iter (fun u -> live.(u) <- r) uses.(r);
      walk uses.(r)
    end;
    if r < c.Ir.Cir.nparams && onlist.(Ir.Cir.entry) <> r then begin
      onlist.(Ir.Cir.entry) <- r;
      work := Ir.Cir.entry :: !work
    end;
    let rec drain () =
      match !work with
      | [] -> ()
      | b :: rest ->
          work := rest;
          Array.iter
            (fun d ->
              if has_phi.(d) <> r && ((not pruned) || live.(d) = r) then begin
                has_phi.(d) <- r;
                phis.(d) <- r :: phis.(d);
                if onlist.(d) <> r then begin
                  onlist.(d) <- r;
                  work := d :: !work
                end
              end)
            df.(b);
          drain ()
    in
    drain ()
  in
  (* Only Briggs's globals (registers with an upward-exposed use) can need a
     φ under [Semi_pruned]; under [Pruned] no other register is live-in. *)
  for r = 0 to nregs - 1 do
    if pruning = Minimal || uses.(r) <> [] then place r
  done;
  (* Build the SSA function. *)
  let bld = Ir.Builder.create ~name:c.Ir.Cir.name ~nparams:c.Ir.Cir.nparams in
  for _ = 0 to n - 1 do
    ignore (Ir.Builder.add_block bld)
  done;
  (* φs are created block-major, register-ascending: value numbering, and so
     all printed output, depends on this order. [phi_ids.(b)] pairs each of
     b's φ registers with its value. *)
  let phi_ids =
    Array.mapi
      (fun b rs -> Array.map (fun r -> (r, Ir.Builder.phi bld b)) (Array.of_list (List.rev rs)))
      phis
  in
  (* Every register starts as 0 (parameters as themselves). *)
  let zero = Ir.Builder.const bld Ir.Cir.entry 0 in
  let params = Array.init c.Ir.Cir.nparams (fun k -> Ir.Builder.param bld Ir.Cir.entry k) in
  let stacks = Array.make nregs [] in
  let top r =
    match stacks.(r) with
    | v :: _ -> v
    | [] -> if r < c.Ir.Cir.nparams then params.(r) else zero
  in
  let rec rename b =
    let pushed = ref [] in
    let push r v =
      stacks.(r) <- v :: stacks.(r);
      pushed := r :: !pushed
    in
    Array.iter (fun (r, v) -> push r v) phi_ids.(b);
    Array.iter
      (fun i ->
        match (i : Ir.Cir.rinstr) with
        | Imov (d, s) -> push d (top s) (* copies are coalesced *)
        | Iconst (d, k) -> push d (Ir.Builder.const bld b k)
        | Iunop (d, op, s) -> push d (Ir.Builder.unop bld b op (top s))
        | Ibinop (d, op, x, y) -> push d (Ir.Builder.binop bld b op (top x) (top y))
        | Icmp (d, op, x, y) -> push d (Ir.Builder.cmp bld b op (top x) (top y))
        | Iopaque (d, tag, args) ->
            push d (Ir.Builder.opaque ~tag bld b (List.map top args)))
      c.Ir.Cir.blocks.(b).Ir.Cir.body;
    let fill_phi_args e s =
      Array.iter (fun (r, phi) -> Ir.Builder.set_phi_arg bld ~phi ~edge:e (top r)) phi_ids.(s)
    in
    (match c.Ir.Cir.blocks.(b).Ir.Cir.term with
    | Tjump d ->
        let e = Ir.Builder.jump bld b ~dst:d in
        fill_phi_args e d
    | Tbranch (r, dt, dff) ->
        let et, ef = Ir.Builder.branch bld b (top r) ~ift:dt ~iff:dff in
        fill_phi_args et dt;
        fill_phi_args ef dff
    | Tswitch (r, cases, default) ->
        let case_edges, default_edge =
          Ir.Builder.switch bld b (top r)
            ~cases:(Array.to_list (Array.map (fun (k, t) -> (k, t)) cases))
            ~default
        in
        List.iteri (fun ix e -> fill_phi_args e (snd cases.(ix))) case_edges;
        fill_phi_args default_edge default
    | Treturn r -> Ir.Builder.ret bld b (top r));
    Array.iter rename dom.Analysis.Dom.children.(b);
    List.iter (fun r -> stacks.(r) <- List.tl stacks.(r)) !pushed
  in
  rename Ir.Cir.entry;
  Ir.Builder.finish bld
