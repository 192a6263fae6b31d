(* The lattice-parameterized sparse engine: Wegman–Zadeck's two-worklist
   fixpoint (SSA def-use edges plus CFG-edge executability) over any
   {!Domain.TRANSFER}. Structure mirrors [Baselines.Sccp] — optimistic
   start (everything [bottom], only the entry block executable), facts only
   ever rise, φs join over executable incoming edges only, and a branch
   marks an out-edge executable only while the condition's fact leaves it
   feasible.

   Two additions over plain SCCP:

   - refinement (on by default): facts are read through the branch-edge
     facts of [Pred.Facts] — the value-versus-constant atoms holding on
     entry to a block or along an edge — so a use guarded by [x < 10] sees
     the guarded fact even though the definition's stored fact is wider.
     The atoms are syntactic, so the fixpoint stays monotone: refinement
     never depends on evolving facts or on executability;
   - widening: at natural-loop headers (from [Analysis.Loops]) φ joins go
     through [D.widen], bounding climb height on infinite-height domains;
     a per-value fuse forces [top] if a fact still somehow keeps rising. *)

(* [Pred.Atom.make] puts the constant first, so an atom [k op v] about
   value [v] reads [v (swap_cmp op) k]. Atoms between two values (and the
   constant-folded [never]) do not refine a single value's fact. *)
let rec count_about v n = function
  | [] -> n
  | { Pred.Atom.a = Pred.Atom.Const _; b = Pred.Atom.Term x; _ } :: rest when x = v ->
      count_about v (n + 1) rest
  | _ :: rest -> count_about v n rest

let rec refine_pass refine v d = function
  | [] -> d
  | { Pred.Atom.op; a = Pred.Atom.Const k; b = Pred.Atom.Term x } :: rest when x = v ->
      refine_pass refine v (refine d (Ir.Types.swap_cmp op) k) rest
  | _ :: rest -> refine_pass refine v d rest

(* Fold the atoms about value [v] over a domain's [refine].

   A single pass is order-sensitive: disequalities bite only at interval
   boundaries, so [x ≠ 3] refines nothing before [x > 2] arrives but
   sharpens [3,∞) to [4,∞) after it. The dominator-chain order of the
   atoms is structural, not semantic, so iterate to a bounded fixpoint
   instead: ordered bounds and equalities are idempotent and each
   disequality can bite at most twice (once per boundary), so [2n + 1]
   passes over [n] relevant atoms provably stabilize any reductive
   [refine]. *)
let apply (type d) (refine : d -> Ir.Types.cmp -> int -> d) (atoms : Pred.Atom.t list)
    (v : Ir.Func.value) (d : d) : d =
  match count_about v 0 atoms with
  | 0 -> d
  | 1 -> refine_pass refine v d atoms
  | n ->
      let rec go i d = if i = 0 then d else go (i - 1) (refine_pass refine v d atoms) in
      go ((2 * n) + 1) d

module Make (D : Domain.TRANSFER) = struct
  type result = {
    func : Ir.Func.t;
    facts : D.t array;  (** per instruction id; unrefined fact of each def *)
    block_exec : bool array;
    edge_exec : bool array;
    refinement : Pred.Facts.t option;  (** present when refinement was enabled *)
  }

  (* The fact [d] of value [v] as seen from block [b] (resp. while
     traversing edge [e]): [d] meeting every branch-edge fact about [v]
     holding there. Values no fact names skip the scan. *)
  let refine_at_block refinement b v d =
    match refinement with
    | Some r when Pred.Facts.mentions r v -> apply D.refine (Pred.Facts.at_block r b) v d
    | _ -> d

  let refine_on_edge refinement e v d =
    match refinement with
    | Some r when Pred.Facts.mentions r v -> apply D.refine (Pred.Facts.at_edge r e) v d
    | _ -> d

  (* Updates a single fact may receive before being forced to [top]. The
     interval domain widens at loop headers, so real chains are short;
     this is a safety fuse, not a tuning knob. *)
  let fuse = 64

  (* [?ctx] supplies the routine's dominators and loop forest (for the
     refinement facts and the widening points); a fresh context otherwise. *)
  let run ?obs ?(refine = true) ?ctx (f : Ir.Func.t) : result =
    Obs.span_o obs ~cat:"absint" ("absint." ^ D.name ^ ".fixpoint")
    @@ fun () ->
    let t_begin = match obs with Some o -> Obs.clock o | None -> 0.0 in
    let rounds = ref 0 and ssa_steps = ref 0 and flow_steps = ref 0 in
    let ni = Ir.Func.num_instrs f in
    let facts = Array.make ni D.bottom in
    let edge_exec = Array.make (Ir.Func.num_edges f) false in
    let block_exec = Array.make (Ir.Func.num_blocks f) false in
    let ctx = Analysis.Ctx.get ?ctx f in
    let refinement = if refine then Some (Pred.Facts.compute ~ctx f) else None in
    let widen_at = Array.make (Ir.Func.num_blocks f) false in
    (* Widen at every retreating-edge target: natural-loop headers plus the
       targets of irreducible retreating edges, which head a cycle even
       though they head no natural loop. *)
    List.iter
      (fun h -> widen_at.(h) <- true)
      (Analysis.Loops.widen_blocks (Analysis.Ctx.loops ctx f));
    let bumps = Array.make ni 0 in
    let def_use = Ir.Func.def_use f in
    let ssa_work = Queue.create () in
    let flow_work = Queue.create () in
    let raise_fact v d =
      let next = D.join facts.(v) d in
      if not (D.equal next facts.(v)) then begin
        bumps.(v) <- bumps.(v) + 1;
        facts.(v) <- (if bumps.(v) > fuse then D.top else next);
        Ir.Func.iter_users def_use v (fun u -> Queue.add u ssa_work)
      end
    in
    let env b v = refine_at_block refinement b v facts.(v) in
    let env_on_edge e v = refine_on_edge refinement e v facts.(v) in
    let eval_instr i =
      let b = Ir.Func.block_of_instr f i in
      if block_exec.(b) then
        let env = env b in
        match Ir.Func.instr f i with
        | Ir.Func.Const n -> raise_fact i (D.const n)
        | Ir.Func.Param k -> raise_fact i (D.param k)
        | Ir.Func.Opaque (tag, args) ->
            raise_fact i (D.opaque tag (Array.to_list (Array.map env args)))
        | Ir.Func.Unop (op, a) -> raise_fact i (D.unop op (a, env a))
        | Ir.Func.Binop (op, a, b') ->
            raise_fact i (D.binop op (a, env a) (b', env b'))
        | Ir.Func.Cmp (op, a, b') ->
            raise_fact i (D.cmp op (a, env a) (b', env b'))
        | Ir.Func.Phi args ->
            let preds = (Ir.Func.block f b).Ir.Func.preds in
            let j = ref D.bottom in
            Array.iteri
              (fun ix e ->
                if edge_exec.(e) then
                  let a = args.(ix) in
                  j := D.join !j (D.phi_arg a (env_on_edge e a)))
              preds;
            let d = if widen_at.(b) then D.widen facts.(i) (D.join facts.(i) !j) else !j in
            raise_fact i d
        | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ()
    in
    let eval_terminator b =
      let blk = Ir.Func.block f b in
      let feasible d = not (D.is_bottom d) in
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump -> Queue.add blk.Ir.Func.succs.(0) flow_work
      | Ir.Func.Branch c ->
          let d = env b c in
          if feasible d then begin
            if feasible (D.refine d Ir.Types.Ne 0) then
              Queue.add blk.Ir.Func.succs.(0) flow_work;
            if feasible (D.refine d Ir.Types.Eq 0) then
              Queue.add blk.Ir.Func.succs.(1) flow_work
          end
      | Ir.Func.Switch (c, cases) ->
          let d = env b c in
          if feasible d then begin
            Array.iteri
              (fun ix case ->
                if feasible (D.refine d Ir.Types.Eq case) then
                  Queue.add blk.Ir.Func.succs.(ix) flow_work)
              cases;
            (* Case exclusions are disequalities, which bite only at
               domain boundaries — one fold is sensitive to the case
               order. Re-fold until stable: [x ∈ [3,5]] minus cases
               {4; 5; 3} needs a second round to reach ⊥. *)
            let fold_cases d =
              Array.fold_left (fun d case -> D.refine d Ir.Types.Ne case) d cases
            in
            let rec dflt_fix i d =
              let d' = fold_cases d in
              if i = 0 || D.equal d' d then d' else dflt_fix (i - 1) d'
            in
            let dflt = dflt_fix (Array.length cases) d in
            if feasible dflt then
              Queue.add blk.Ir.Func.succs.(Array.length cases) flow_work
          end
      | Ir.Func.Return _ -> ()
      | _ -> ()
    in
    block_exec.(Ir.Func.entry) <- true;
    Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.block f Ir.Func.entry).Ir.Func.instrs;
    eval_terminator Ir.Func.entry;
    while not (Queue.is_empty flow_work && Queue.is_empty ssa_work) do
      incr rounds;
      while not (Queue.is_empty flow_work) do
        incr flow_steps;
        let e = Queue.pop flow_work in
        if not edge_exec.(e) then begin
          edge_exec.(e) <- true;
          let d = (Ir.Func.edge f e).Ir.Func.dst in
          if not block_exec.(d) then begin
            block_exec.(d) <- true;
            Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.block f d).Ir.Func.instrs;
            eval_terminator d
          end
          else Array.iter (fun i -> Queue.add i ssa_work) (Ir.Func.phis_of_block f d)
        end
      done;
      while not (Queue.is_empty ssa_work) do
        incr ssa_steps;
        let i = Queue.pop ssa_work in
        let b = Ir.Func.block_of_instr f i in
        if Ir.Func.defines_value (Ir.Func.instr f i) then eval_instr i
        else if block_exec.(b) then eval_terminator b
      done
    done;
    (match obs with
    | None -> ()
    | Some o ->
        let prefix = "absint." ^ D.name in
        Obs.add o (prefix ^ ".runs") 1;
        Obs.add o (prefix ^ ".rounds") !rounds;
        Obs.add o (prefix ^ ".ssa_steps") !ssa_steps;
        Obs.add o (prefix ^ ".flow_steps") !flow_steps;
        Obs.observe_seconds o (prefix ^ ".run_ns") (Obs.clock o -. t_begin));
    { func = f; facts; block_exec; edge_exec; refinement }

  let fact res v = res.facts.(v)

  (* The branch-edge facts the run refined through; computed here when the
     run had refinement off. *)
  let branch_facts res =
    match res.refinement with Some r -> r | None -> Pred.Facts.compute res.func

  (* The fact for value [v] as seen from block [b]: the stored fact meeting
     every branch-edge fact holding on entry to [b]. *)
  let env_at res b v = refine_at_block res.refinement b v res.facts.(v)

  (* Same, as seen while traversing edge [e]. *)
  let env_on_edge res e v = refine_on_edge res.refinement e v res.facts.(v)
end
