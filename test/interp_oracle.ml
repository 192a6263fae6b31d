(* The reference interpreter as it ran before its three entry points
   became one loop: [run], [run_instrumented] and [run_with_env] are three
   copies, each allocating the φ prefix, its values and the incoming edge
   at every block entry, and a trap unwinds through an exception. It
   shares no execution code with [Ir.Interp], so the tests can hold the
   loop's results, fuel, traces and hook events to it. *)

open Ir

type result = Interp.result = Ret of int | Trap | Timeout
type trace = Interp.trace = { mutable steps : int; mutable blocks_visited : int }

(* Opaque instructions are uninterpreted pure functions: any deterministic
   function of (tag, args) is a valid model. We use a 64-bit mix so results
   look adversarial to the optimizer. *)
let opaque_model tag args =
  let mix h x =
    let open Int64 in
    let h = logxor h (of_int x) in
    let h = mul h 0x100000001B3L in
    logxor h (shift_right_logical h 29)
  in
  let h = Array.fold_left (fun h v -> mix h v) (mix 0xCBF29CE484222325L tag) args in
  Int64.to_int (Int64.shift_right_logical h 3)

(* Runs [f] on [args]; [fuel] bounds the number of executed instructions so
   that non-terminating loops produce [Timeout]. *)
let run ?(fuel = 100_000) ?trace (f : Func.t) (args : int array) : result =
  let env = Array.make (Func.num_instrs f) 0 in
  let exception Trapped in
  let eval_instr i =
    match Func.instr f i with
    | Func.Const n -> env.(i) <- n
    | Func.Param k -> env.(i) <- (if k < Array.length args then args.(k) else 0)
    | Func.Unop (op, a) -> env.(i) <- Types.eval_unop op env.(a)
    | Func.Binop (op, a, b) -> (
        match Types.eval_binop op env.(a) env.(b) with
        | n -> env.(i) <- n
        | exception Types.Division_by_zero -> raise Trapped)
    | Func.Cmp (op, a, b) -> env.(i) <- Types.eval_cmp op env.(a) env.(b)
    | Func.Opaque (tag, oargs) ->
        env.(i) <- opaque_model tag (Array.map (fun v -> env.(v)) oargs)
    | Func.Phi _ | Func.Jump | Func.Branch _ | Func.Switch _ | Func.Return _ -> assert false
  in
  let fuel_left = ref fuel in
  let rec exec_block b incoming_edge =
    (match trace with
    | Some t -> t.blocks_visited <- t.blocks_visited + 1
    | None -> ());
    let blk = Func.block f b in
    (* Phis read their incoming values as a parallel copy. *)
    let phis = Func.phis_of_block f b in
    let phi_vals =
      Array.map
        (fun p ->
          match Func.instr f p with
          | Func.Phi pargs ->
              let ix =
                match incoming_edge with
                | Some e -> (Func.edge f e).dst_ix
                | None -> invalid_arg "Interp: phi in entry block"
              in
              env.(pargs.(ix))
          | _ -> assert false)
        phis
    in
    Array.iteri (fun k p -> env.(p) <- phi_vals.(k)) phis;
    let n = Array.length blk.instrs in
    let rec step pos =
      let i = blk.instrs.(pos) in
      if !fuel_left <= 0 then Timeout
      else begin
        decr fuel_left;
        (match trace with Some t -> t.steps <- t.steps + 1 | None -> ());
        match Func.instr f i with
        | Func.Jump -> exec_block (Func.edge f blk.succs.(0)).Func.dst (Some blk.succs.(0))
        | Func.Branch c ->
            let e = if env.(c) <> 0 then blk.succs.(0) else blk.succs.(1) in
            exec_block (Func.edge f e).Func.dst (Some e)
        | Func.Switch (c, cases) ->
            let ix = ref (Array.length cases) (* default *) in
            Array.iteri (fun k case -> if env.(c) = case then ix := k) cases;
            let e = blk.succs.(!ix) in
            exec_block (Func.edge f e).Func.dst (Some e)
        | Func.Return v -> Ret env.(v)
        | Func.Phi _ -> step (pos + 1) (* already handled above *)
        | _ ->
            eval_instr i;
            step (pos + 1)
      end
    in
    if n = 0 then invalid_arg "Interp: empty block" else step 0
  in
  match exec_block Func.entry None with r -> r | exception Trapped -> Trap

(* Runs [f] with observation hooks: [on_def i v] fires each time
   instruction [i] defines value [v] (φs fire at block entry, as the
   parallel copy commits), [on_edge] on each traversed CFG edge, [on_block]
   on each block entry. The translation validator uses this to refute
   witness claims at the program point where they are made. *)
let run_instrumented ?(fuel = 100_000) ?(on_def = fun _ _ -> ())
    ?(on_edge = fun _ -> ()) ?(on_block = fun _ -> ()) (f : Func.t)
    (args : int array) : result =
  let raw = Array.make (Func.num_instrs f) 0 in
  let exception Trapped in
  let fuel_left = ref fuel in
  let record i v =
    raw.(i) <- v;
    on_def i v
  in
  let rec exec_block b incoming_edge =
    on_block b;
    let blk = Func.block f b in
    let phis = Func.phis_of_block f b in
    let phi_vals =
      Array.map
        (fun p ->
          match Func.instr f p with
          | Func.Phi pargs ->
              let ix =
                match incoming_edge with
                | Some e -> (Func.edge f e).Func.dst_ix
                | None -> invalid_arg "Interp: phi in entry block"
              in
              raw.(pargs.(ix))
          | _ -> assert false)
        phis
    in
    Array.iteri (fun k p -> record p phi_vals.(k)) phis;
    let take e =
      on_edge e;
      exec_block (Func.edge f e).Func.dst (Some e)
    in
    let rec step pos =
      let i = blk.instrs.(pos) in
      if !fuel_left <= 0 then Timeout
      else begin
        decr fuel_left;
        match Func.instr f i with
        | Func.Jump -> take blk.succs.(0)
        | Func.Branch c -> take (if raw.(c) <> 0 then blk.succs.(0) else blk.succs.(1))
        | Func.Switch (c, cases) ->
            let ix = ref (Array.length cases) in
            Array.iteri (fun k case -> if raw.(c) = case then ix := k) cases;
            take blk.succs.(!ix)
        | Func.Return v -> Ret raw.(v)
        | Func.Phi _ -> step (pos + 1)
        | Func.Const n ->
            record i n;
            step (pos + 1)
        | Func.Param k ->
            record i (if k < Array.length args then args.(k) else 0);
            step (pos + 1)
        | Func.Unop (op, a) ->
            record i (Types.eval_unop op raw.(a));
            step (pos + 1)
        | Func.Binop (op, a, b) -> (
            match Types.eval_binop op raw.(a) raw.(b) with
            | n ->
                record i n;
                step (pos + 1)
            | exception Types.Division_by_zero -> raise Trapped)
        | Func.Cmp (op, a, b) ->
            record i (Types.eval_cmp op raw.(a) raw.(b));
            step (pos + 1)
        | Func.Opaque (tag, oargs) ->
            record i (opaque_model tag (Array.map (fun v -> raw.(v)) oargs));
            step (pos + 1)
      end
    in
    step 0
  in
  match exec_block Func.entry None with r -> r | exception Trapped -> Trap

(* Runs [f] and also records the value each instruction last computed;
   used to check that GVN-congruent values really agree at run time. *)
let run_with_env ?(fuel = 100_000) f args =
  let env = Array.make (Func.num_instrs f) None in
  let executed = Array.make (Func.num_instrs f) false in
  (* Re-implement on top of [run] by instrumenting a copy is more code than
     rerunning the small interpreter; instead we inline a variant here. *)
  let raw = Array.make (Func.num_instrs f) 0 in
  let exception Trapped in
  let fuel_left = ref fuel in
  let record i v =
    raw.(i) <- v;
    env.(i) <- Some v;
    executed.(i) <- true
  in
  let rec exec_block b incoming_edge =
    let blk = Func.block f b in
    let phis = Func.phis_of_block f b in
    let phi_vals =
      Array.map
        (fun p ->
          match Func.instr f p with
          | Func.Phi pargs ->
              let ix =
                match incoming_edge with
                | Some e -> (Func.edge f e).Func.dst_ix
                | None -> invalid_arg "Interp: phi in entry block"
              in
              raw.(pargs.(ix))
          | _ -> assert false)
        phis
    in
    Array.iteri (fun k p -> record p phi_vals.(k)) phis;
    let rec step pos =
      let i = blk.instrs.(pos) in
      if !fuel_left <= 0 then Timeout
      else begin
        decr fuel_left;
        match Func.instr f i with
        | Func.Jump -> exec_block (Func.edge f blk.succs.(0)).Func.dst (Some blk.succs.(0))
        | Func.Branch c ->
            let e = if raw.(c) <> 0 then blk.succs.(0) else blk.succs.(1) in
            exec_block (Func.edge f e).Func.dst (Some e)
        | Func.Switch (c, cases) ->
            let ix = ref (Array.length cases) in
            Array.iteri (fun k case -> if raw.(c) = case then ix := k) cases;
            let e = blk.succs.(!ix) in
            exec_block (Func.edge f e).Func.dst (Some e)
        | Func.Return v -> Ret raw.(v)
        | Func.Phi _ -> step (pos + 1)
        | Func.Const n ->
            record i n;
            step (pos + 1)
        | Func.Param k ->
            record i (if k < Array.length args then args.(k) else 0);
            step (pos + 1)
        | Func.Unop (op, a) ->
            record i (Types.eval_unop op raw.(a));
            step (pos + 1)
        | Func.Binop (op, a, b) -> (
            match Types.eval_binop op raw.(a) raw.(b) with
            | n ->
                record i n;
                step (pos + 1)
            | exception Types.Division_by_zero -> raise Trapped)
        | Func.Cmp (op, a, b) ->
            record i (Types.eval_cmp op raw.(a) raw.(b));
            step (pos + 1)
        | Func.Opaque (tag, oargs) ->
            record i (opaque_model tag (Array.map (fun v -> raw.(v)) oargs));
            step (pos + 1)
      end
    in
    step 0
  in
  let result = match exec_block Func.entry None with r -> r | exception Trapped -> Trap in
  (result, env)
