(* Global Code Motion (Click PLDI '95), the transform half of
   lib/schedule: move every movable value to its Placement.best block.

   The plan is just the per-value target vector (best for movable values,
   the current block otherwise); certification is Check.Schedule's job —
   the checker recomputes dominators, the loop forest and the trap-safety
   facts from first principles, so a planner bug surfaces as a pinned
   sched-* diagnostic and Rejected, never as a silent miscompile.

   The rebuild keeps the CFG bit-for-bit (same blocks, edges, terminator
   shapes, φs on their blocks) and only re-homes non-φ values. Within a
   block the layout is dependency order: [force] emits a value's
   value-defining operands (into their own target blocks) before the value
   itself, so an operand that shares the user's destination always lands
   above it. Recursion terminates because every SSA cycle passes through a
   φ, and φs are all emitted up front. *)

type stats = {
  values : int;
  moved : int;
  hoisted : int;
  sunk : int;
  speculation_blocked : int;
}

type plan = {
  placement : Schedule.Placement.t;
  target : Check.Schedule.placement;
}

exception Rejected of { diagnostics : Check.Diagnostic.t list }

let () =
  Printexc.register_printer (function
    | Rejected { diagnostics } ->
        Some
          (Fmt.str "Gcm.Rejected: %d schedule-legality violation(s)%s"
             (List.length diagnostics)
             (match diagnostics with
             | [] -> ""
             | d :: _ -> Fmt.str " (first: %a)" Check.Diagnostic.pp d))
    | _ -> None)

let plan ?obs (f : Ir.Func.t) : plan =
  let placement = Schedule.Placement.compute ?obs f in
  let target = Check.Schedule.identity f in
  for v = 0 to Ir.Func.num_instrs f - 1 do
    if Schedule.Placement.movable placement v then
      target.(v) <- placement.Schedule.Placement.best.(v)
  done;
  { placement; target }

let moves (p : plan) : (Ir.Func.value * int * int) list =
  let f = p.placement.Schedule.Placement.func in
  let out = ref [] in
  for v = Ir.Func.num_instrs f - 1 downto 0 do
    let b = Ir.Func.block_of_instr f v in
    if p.target.(v) <> b then out := (v, b, p.target.(v)) :: !out
  done;
  !out

let stats (p : plan) : stats =
  let pl = p.placement in
  let f = pl.Schedule.Placement.func in
  let s = Schedule.Placement.stats pl in
  let moved = ref 0 and hoisted = ref 0 and sunk = ref 0 in
  for v = 0 to Ir.Func.num_instrs f - 1 do
    if p.target.(v) <> Ir.Func.block_of_instr f v then begin
      incr moved;
      if Schedule.Placement.hoistable pl v then incr hoisted;
      if Schedule.Placement.sinkable pl v then incr sunk
    end
  done;
  {
    values = s.Schedule.Placement.values;
    moved = !moved;
    hoisted = !hoisted;
    sunk = !sunk;
    speculation_blocked = s.Schedule.Placement.speculation_blocked;
  }

let certify (p : plan) : Check.Diagnostic.t list =
  Check.Schedule.run ~placement:p.target p.placement.Schedule.Placement.func

let apply ?obs (p : plan) : Ir.Func.t =
  Obs.span_o obs ~cat:"pass" "gcm.rebuild" @@ fun () ->
  let f = p.placement.Schedule.Placement.func in
  let nb = Ir.Func.num_blocks f in
  let ni = Ir.Func.num_instrs f in
  let bld = Ir.Builder.create ~name:f.Ir.Func.name ~nparams:f.Ir.Func.nparams in
  let block_map = Array.init nb (fun _ -> Ir.Builder.add_block bld) in
  let value_map = Array.make ni (-1) in
  let resolve v =
    if value_map.(v) < 0 then
      invalid_arg (Printf.sprintf "Gcm.apply: v%d used before definition" v);
    value_map.(v)
  in
  (* φs first, on their own (never-moved) blocks, in original order; their
     arguments are wired per incoming edge once the edges exist. *)
  let phi_fixups = ref [] in
  for b = 0 to nb - 1 do
    let blk = Ir.Func.block f b in
    Array.iter
      (fun i ->
        match Ir.Func.instr f i with
        | Ir.Func.Phi args ->
            let p' = Ir.Builder.phi bld block_map.(b) in
            value_map.(i) <- p';
            let wiring =
              Array.to_list blk.Ir.Func.preds
              |> List.mapi (fun ix e -> (e, args.(ix)))
            in
            phi_fixups := (p', wiring) :: !phi_fixups
        | _ -> ())
      blk.Ir.Func.instrs
  done;
  (* Non-φ values: emit into their target blocks, operands first. *)
  let rec force v =
    if value_map.(v) < 0 then begin
      let ins = Ir.Func.instr f v in
      Ir.Func.iter_operands
        (fun o -> if Ir.Func.defines_value (Ir.Func.instr f o) then force o)
        ins;
      let dst = block_map.(p.target.(v)) in
      value_map.(v) <-
        (match ins with
        | Ir.Func.Const c -> Ir.Builder.const bld dst c
        | Ir.Func.Param k -> Ir.Builder.param bld dst k
        | Ir.Func.Unop (op, a) -> Ir.Builder.unop bld dst op (resolve a)
        | Ir.Func.Binop (op, a, b') ->
            Ir.Builder.binop bld dst op (resolve a) (resolve b')
        | Ir.Func.Cmp (op, a, b') ->
            Ir.Builder.cmp bld dst op (resolve a) (resolve b')
        | Ir.Func.Opaque (tag, args) ->
            Ir.Builder.opaque ~tag bld dst (List.map resolve (Array.to_list args))
        | Ir.Func.Phi _ | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _
        | Ir.Func.Return _ ->
            invalid_arg "Gcm.apply: force on a non-value")
    end
  in
  (* Walk destination blocks in RPO, emitting each block's assigned values
     in original-id order; [force] pulls any straggler operand forward.
     Unreachable blocks (absent from RPO) never receive moved values, so a
     final id-order sweep reproduces them as they were. *)
  let assigned = Array.make nb [] in
  for v = ni - 1 downto 0 do
    let ins = Ir.Func.instr f v in
    if Ir.Func.defines_value ins && not (Ir.Func.is_phi ins) then
      assigned.(p.target.(v)) <- v :: assigned.(p.target.(v))
  done;
  let rpo = Analysis.Rpo.compute (Analysis.Graph.of_func f) in
  Array.iter
    (fun b -> List.iter force assigned.(b))
    rpo.Analysis.Rpo.order;
  for v = 0 to ni - 1 do
    let ins = Ir.Func.instr f v in
    if Ir.Func.defines_value ins && not (Ir.Func.is_phi ins) then force v
  done;
  (* Terminators recreate the CFG verbatim; old-edge → new-edge ids feed
     the φ wiring. *)
  let edge_map = Array.make (Ir.Func.num_edges f) (-1) in
  for b = 0 to nb - 1 do
    let nb' = block_map.(b) in
    let blk = Ir.Func.block f b in
    let dst_of e = block_map.((Ir.Func.edge f e).Ir.Func.dst) in
    match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
    | Ir.Func.Jump ->
        let e = blk.Ir.Func.succs.(0) in
        edge_map.(e) <- Ir.Builder.jump bld nb' ~dst:(dst_of e)
    | Ir.Func.Return v -> Ir.Builder.ret bld nb' (resolve v)
    | Ir.Func.Branch c ->
        let et = blk.Ir.Func.succs.(0) and ef = blk.Ir.Func.succs.(1) in
        let net, nef =
          Ir.Builder.branch bld nb' (resolve c) ~ift:(dst_of et) ~iff:(dst_of ef)
        in
        edge_map.(et) <- net;
        edge_map.(ef) <- nef
    | Ir.Func.Switch (c, cases) ->
        let ncases = Array.length cases in
        let case_args =
          Array.to_list (Array.mapi (fun ix k -> (k, dst_of blk.Ir.Func.succs.(ix))) cases)
        in
        let de = blk.Ir.Func.succs.(ncases) in
        let case_edges, new_default =
          Ir.Builder.switch bld nb' (resolve c) ~cases:case_args ~default:(dst_of de)
        in
        List.iteri (fun ix ne -> edge_map.(blk.Ir.Func.succs.(ix)) <- ne) case_edges;
        edge_map.(de) <- new_default
    | _ -> invalid_arg "Gcm.apply: missing terminator"
  done;
  List.iter
    (fun (p', wiring) ->
      List.iter
        (fun (e, a) -> Ir.Builder.set_phi_arg bld ~phi:p' ~edge:edge_map.(e) (resolve a))
        wiring)
    !phi_fixups;
  Ir.Builder.finish bld

let run ?obs (f : Ir.Func.t) : Ir.Func.t * plan =
  Obs.span_o obs ~cat:"pass" "gcm" @@ fun () ->
  let t0 = match obs with Some o -> Obs.clock o | None -> 0.0 in
  let p = plan ?obs f in
  let diagnostics =
    Obs.span_o obs ~cat:"verify" "gcm.certify" (fun () ->
        Check.errors (certify p))
  in
  if diagnostics <> [] then raise (Rejected { diagnostics });
  let s = stats p in
  let f' = if s.moved = 0 then f else apply ?obs p in
  (match obs with
  | None -> ()
  | Some o ->
      Obs.add o "gcm.values" s.values;
      Obs.add o "gcm.moved" s.moved;
      Obs.add o "gcm.hoisted" s.hoisted;
      Obs.add o "gcm.sunk" s.sunk;
      Obs.add o "gcm.speculation_blocked" s.speculation_blocked;
      Obs.observe_seconds o "gcm.transform_ns" (Obs.clock o -. t0));
  (f', p)
