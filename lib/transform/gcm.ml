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
  let c = Ir.Copy.create f in
  (* φs first, on their own (never-moved) blocks, in original order. *)
  for b = 0 to nb - 1 do
    Array.iter
      (fun i -> if Ir.Func.is_phi (Ir.Func.instr f i) then Ir.Copy.instr c ~into:b i)
      (Ir.Func.block f b).Ir.Func.instrs
  done;
  (* Non-φ values: emit into their target blocks, operands first. *)
  let rec force v =
    if not (Ir.Copy.copied c v) then begin
      Ir.Func.iter_operands
        (fun o -> if Ir.Func.defines_value (Ir.Func.instr f o) then force o)
        (Ir.Func.instr f v);
      Ir.Copy.instr c ~into:p.target.(v) v
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
  let rpo = Analysis.Ctx.rpo p.placement.Schedule.Placement.ctx f in
  Array.iter
    (fun b -> List.iter force assigned.(b))
    rpo.Analysis.Rpo.order;
  for v = 0 to ni - 1 do
    let ins = Ir.Func.instr f v in
    if Ir.Func.defines_value ins && not (Ir.Func.is_phi ins) then force v
  done;
  (* Terminators recreate the CFG verbatim. *)
  Ir.Copy.finish c

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
