(* The dense reference SSA construction: φ placement on iterated dominance
   frontiers with nblocks × nregs bookkeeping, a fixpoint liveness over
   register-wide bit arrays, and a rename walk that scans every register per
   block. It is quadratic, and kept only as the oracle that pins
   [Ssa.Construct.of_cir]'s output for every pruning mode. *)

(* Per-block upward-exposed uses and defs, for liveness and globals. *)
let block_use_def (c : Ir.Cir.t) =
  let n = Ir.Cir.num_blocks c in
  let uses = Array.make n [] in
  let defs = Array.init n (fun _ -> Array.make 0 false) in
  let defs = Array.map (fun _ -> Array.make c.Ir.Cir.nregs false) defs in
  for b = 0 to n - 1 do
    let blk = c.Ir.Cir.blocks.(b) in
    let add_use r = if not defs.(b).(r) then uses.(b) <- r :: uses.(b) in
    Array.iter
      (fun i ->
        Ir.Cir.iter_uses_rinstr add_use i;
        defs.(b).(Ir.Cir.def_of_rinstr i) <- true)
      blk.Ir.Cir.body;
    Ir.Cir.iter_uses_term add_use blk.Ir.Cir.term
  done;
  (uses, defs)

(* Backward liveness to a fixpoint; returns live-in sets. *)
let live_in (c : Ir.Cir.t) (g : Analysis.Graph.t) =
  let n = Ir.Cir.num_blocks c in
  let uses, defs = block_use_def c in
  let livein = Array.init n (fun _ -> Array.make c.Ir.Cir.nregs false) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      (* live-out(b) = union of live-in of successors *)
      let update r =
        if (not defs.(b).(r)) && not livein.(b).(r) then begin
          livein.(b).(r) <- true;
          changed := true
        end
      in
      Array.iter
        (fun s ->
          Array.iteri (fun r l -> if l then update r) livein.(s))
        g.Analysis.Graph.succ.(b);
      List.iter
        (fun r ->
          if not livein.(b).(r) then begin
            livein.(b).(r) <- true;
            changed := true
          end)
        uses.(b)
    done
  done;
  livein

(* Registers live across a block boundary (Briggs's globals). *)
let global_regs (c : Ir.Cir.t) =
  let uses, _ = block_use_def c in
  let globals = Array.make c.Ir.Cir.nregs false in
  Array.iter (fun us -> List.iter (fun r -> globals.(r) <- true) us) uses;
  globals

let of_cir ?(pruning = Ssa.Construct.Semi_pruned) (c : Ir.Cir.t) : Ir.Func.t =
  let c = Ir.Cir.prune_unreachable c in
  let g = Analysis.Graph.of_cir c in
  let dom = Analysis.Dom.compute g in
  let df = Analysis.Domfront.compute g dom in
  let n = Ir.Cir.num_blocks c in
  let nregs = c.Ir.Cir.nregs in
  (* Definition sites per register; parameters are defined at entry. *)
  let def_blocks = Array.make nregs [] in
  for r = 0 to c.Ir.Cir.nparams - 1 do
    def_blocks.(r) <- [ Ir.Cir.entry ]
  done;
  for b = 0 to n - 1 do
    Array.iter
      (fun i ->
        let d = Ir.Cir.def_of_rinstr i in
        def_blocks.(d) <- b :: def_blocks.(d))
      c.Ir.Cir.blocks.(b).Ir.Cir.body
  done;
  let wants_phi =
    match pruning with
    | Ssa.Construct.Minimal -> fun _r _b -> true
    | Semi_pruned ->
        let globals = global_regs c in
        fun r _b -> globals.(r)
    | Pruned ->
        let livein = live_in c g in
        fun r b -> livein.(b).(r)
  in
  (* Iterated dominance frontier placement. *)
  let phi_here = Array.init n (fun _ -> Array.make nregs false) in
  for r = 0 to nregs - 1 do
    let onlist = Array.make n false in
    let work = ref [] in
    List.iter
      (fun b ->
        if not onlist.(b) then begin
          onlist.(b) <- true;
          work := b :: !work
        end)
      def_blocks.(r);
    let rec drain () =
      match !work with
      | [] -> ()
      | b :: rest ->
          work := rest;
          Array.iter
            (fun d ->
              if (not phi_here.(d).(r)) && wants_phi r d then begin
                phi_here.(d).(r) <- true;
                if not onlist.(d) then begin
                  onlist.(d) <- true;
                  work := d :: !work
                end
              end)
            df.(b);
          drain ()
    in
    drain ()
  done;
  (* Build the SSA function. *)
  let bld = Ir.Builder.create ~name:c.Ir.Cir.name ~nparams:c.Ir.Cir.nparams in
  for _ = 0 to n - 1 do
    ignore (Ir.Builder.add_block bld)
  done;
  let phi_ids = Array.init n (fun _ -> Array.make nregs (-1)) in
  for b = 0 to n - 1 do
    for r = 0 to nregs - 1 do
      if phi_here.(b).(r) then phi_ids.(b).(r) <- Ir.Builder.phi bld b
    done
  done;
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
    for r = 0 to nregs - 1 do
      if phi_here.(b).(r) then push r phi_ids.(b).(r)
    done;
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
      for r = 0 to nregs - 1 do
        if phi_here.(s).(r) then
          Ir.Builder.set_phi_arg bld ~phi:phi_ids.(s).(r) ~edge:e (top r)
      done
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
