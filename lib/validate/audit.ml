(* Engine 1: the witness audit. Replay every rewrite witness against the
   independent oracle partition; what the oracle justifies is certified.
   The rest is attacked concretely — each claim is checked at the program
   point where it is made, on the instrumented interpreter, over the input
   battery:

     Replace v by l     whenever v executes, l's most recent value equals
                        v's (checked at v's definition, not at exit — a
                        leader in a loop may legitimately run one partial
                        iteration further);
     Fold v to c        whenever v executes it produces c;
     Drop edge/block    the edge is never traversed / the block never
                        entered;
     Collapse φ         every incoming edge other than the kept one is
                        never traversed.

   A refuted claim is a miscompile: Rejected, with the offending inputs.
   A claim that survives is Unproven — by construction these are rewrites
   the predicated algorithm justified beyond the oracle's power (predicate
   or value inference, φ-predication): precision wins, reported as Info. *)

type verdict = Certified | Unproven | Rejected of string

type outcome = { witness : Witness.t; verdict : verdict }

type report = {
  pass : string;
  func : string;
  total : int;
  certified : int;
  unproven : int;
  rejected : int;
  oracle_rounds : int;
  outcomes : outcome list;
  diagnostics : Check.Diagnostic.t list;
}

(* Claims checked concretely at a value definition. *)
type def_claim = Equals_const of int | Equals_leader of int

let pp_args ppf args = Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ",") int) args

let run ?runs ?seed ?(fuel = 300_000) ~pass (f : Ir.Func.t)
    (witnesses : Witness.t list) : report =
  let oracle = Oracle.run f in
  let dom = Analysis.Ctx.dom (Analysis.Ctx.create f) f in
  let ni = Ir.Func.num_instrs f in
  let pos = Array.make ni 0 in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    Array.iteri (fun k i -> pos.(i) <- k) (Ir.Func.block f b).Ir.Func.instrs
  done;
  let def_dominates ~def ~v =
    let db = Ir.Func.block_of_instr f def and vb = Ir.Func.block_of_instr f v in
    if db = vb then pos.(def) < pos.(v) else Analysis.Dom.strictly_dominates dom db vb
  in
  let ws = Array.of_list witnesses in
  let n = Array.length ws in
  (* Static phase: oracle certification, with the structural side
     conditions a replacement needs (the leader must dominate). *)
  let certified = Array.make n false in
  let static_reject = Array.make n None in
  let def_claims = Array.make ni [] in
  let edge_claims = Array.make (Ir.Func.num_edges f) [] in
  let block_claims = Array.make (Ir.Func.num_blocks f) [] in
  let claim_def v ix c = def_claims.(v) <- (ix, c) :: def_claims.(v) in
  let claim_edge e ix = edge_claims.(e) <- ix :: edge_claims.(e) in
  Array.iteri
    (fun ix w ->
      match w with
      | Witness.Replace { v; leader; _ } ->
          if not (def_dominates ~def:leader ~v) then
            static_reject.(ix) <-
              Some (Printf.sprintf "leader v%d does not dominate v%d" leader v)
          else if not (Oracle.block_reachable oracle (Ir.Func.block_of_instr f v))
          then certified.(ix) <- true (* the oracle proves v never executes *)
          else if Oracle.congruent oracle v leader then certified.(ix) <- true
          else claim_def v ix (Equals_leader leader)
      | Witness.Fold_const { v; c; _ } ->
          if not (Oracle.block_reachable oracle (Ir.Func.block_of_instr f v)) then
            certified.(ix) <- true
          else if Oracle.constant oracle v = Some c then certified.(ix) <- true
          else claim_def v ix (Equals_const c)
      | Witness.Drop_edge { edge } ->
          if not (Oracle.edge_reachable oracle edge) then certified.(ix) <- true
          else claim_edge edge ix
      | Witness.Drop_block { block } ->
          if not (Oracle.block_reachable oracle block) then certified.(ix) <- true
          else block_claims.(block) <- ix :: block_claims.(block)
      | Witness.Collapse_phi { phi; kept_edge; _ } ->
          let preds = (Ir.Func.block f (Ir.Func.block_of_instr f phi)).Ir.Func.preds in
          let others = Array.to_list preds |> List.filter (fun e -> e <> kept_edge) in
          if List.for_all (fun e -> not (Oracle.edge_reachable oracle e)) others then
            certified.(ix) <- true
          else List.iter (fun e -> claim_edge e ix) others)
    ws;
  (* Concrete phase: refute the surviving claims on the input battery. *)
  let violation = Array.make n None in
  let refute ix args detail =
    if violation.(ix) = None then
      violation.(ix) <- Some (Array.copy args, detail)
  in
  if
    Array.exists (fun l -> l <> []) def_claims
    || Array.exists (fun l -> l <> []) edge_claims
    || Array.exists (fun l -> l <> []) block_claims
  then
    List.iter
      (fun args ->
        let last = Array.make ni 0 in
        let has = Array.make ni false in
        let on_def i x =
          List.iter
            (fun (ix, claim) ->
              match claim with
              | Equals_const c ->
                  if x <> c then
                    refute ix args (Printf.sprintf "v%d evaluated to %d, not %d" i x c)
              | Equals_leader l ->
                  if has.(l) && last.(l) <> x then
                    refute ix args
                      (Printf.sprintf "v%d evaluated to %d but leader v%d holds %d" i
                         x l last.(l)))
            def_claims.(i);
          last.(i) <- x;
          has.(i) <- true
        in
        let on_edge e =
          List.iter
            (fun ix -> refute ix args (Printf.sprintf "edge e%d was traversed" e))
            edge_claims.(e)
        in
        let on_block b =
          List.iter
            (fun ix -> refute ix args (Printf.sprintf "block b%d was entered" b))
            block_claims.(b)
        in
        ignore (Ir.Interp.run_instrumented ~fuel ~on_def ~on_edge ~on_block f args))
      (Inputs.vectors ?runs ?seed f.Ir.Func.nparams);
  (* Verdicts and diagnostics. *)
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun ix w ->
           let verdict =
             match static_reject.(ix) with
             | Some d -> Rejected d
             | None ->
                 if certified.(ix) then Certified
                 else
                   match violation.(ix) with
                   | Some (args, d) ->
                       Rejected
                         (Printf.sprintf "%s on args=%s" d
                            (Fmt.to_to_string pp_args args))
                   | None -> Unproven
           in
           { witness = w; verdict })
         ws)
  in
  let count p = List.length (List.filter p outcomes) in
  let diagnostics =
    List.filter_map
      (fun o ->
        match o.verdict with
        | Certified -> None
        | Rejected detail ->
            Some
              (Check.Diagnostic.error ~check:(Witness.check_id o.witness)
                 ~loc:(Witness.loc o.witness) "%s: rejected rewrite (%s): %s" pass
                 (Witness.to_string o.witness)
                 detail)
        | Unproven ->
            Some
              (Check.Diagnostic.info ~check:"validate-precision-win"
                 ~loc:(Witness.loc o.witness)
                 "%s: %s: beyond the oracle (predicate/value inference); concrete \
                  audit found no violation"
                 pass
                 (Witness.to_string o.witness)))
      outcomes
  in
  {
    pass;
    func = f.Ir.Func.name;
    total = n;
    certified = count (fun o -> o.verdict = Certified);
    unproven = count (fun o -> o.verdict = Unproven);
    rejected = count (fun o -> match o.verdict with Rejected _ -> true | _ -> false);
    oracle_rounds = Oracle.rounds oracle;
    outcomes;
    diagnostics;
  }

let ok r = r.rejected = 0
