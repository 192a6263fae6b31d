(* The dominating-edge walks: the counts [Pgvn.State] keeps for them
   against brute-force recounts, and the engine's walks against the
   reference walks of [Walk_oracle], over generated routines, Figure 9
   ladders and guard nests under every preset and the complete variant. *)

module H = Pgvn.Hexpr

(* Every CLI preset and [full] under the complete variant; the count
   invariants also run under [pred_closure], whose switch defaults count as
   comparison operands. *)
let walk_configs =
  List.map
    (fun name -> (name, Result.get_ok (Cli.Cli_options.preset_of_string name)))
    Cli.Cli_options.preset_names
  @ [ ("full --complete", { Pgvn.Config.full with variant = Pgvn.Config.Complete }) ]

let count_configs = walk_configs @ [ ("full --pred", { Pgvn.Config.full with pred_closure = true }) ]

let run config f = match Pgvn.Driver.run config f with st -> Some st | exception Pgvn.Driver.Diverged _ -> None

(* The first count that differs from its recount, if any. *)
let count_mismatch (st : Pgvn.State.t) =
  let open Pgvn.State in
  let f = st.f in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    let preds = (Ir.Func.block f b).Ir.Func.preds in
    let reach = List.filter (fun e -> st.reach_edge.(e)) (Array.to_list preds) in
    if st.in_reachable.(b) <> List.length reach then
      fail "b%d: in_reachable %d, recount %d" b st.in_reachable.(b) (List.length reach);
    let sole = match reach with [ e ] -> e | _ -> -1 in
    if st.sole_in.(b) <> sole then fail "b%d: sole_in %d, recount %d" b st.sole_in.(b) sole;
    if st.back_in.(b) <> Array.exists (fun e -> st.backward.(e)) preds then fail "b%d: back_in" b
  done;
  let ni = Ir.Func.num_instrs f in
  let eq_refs = Array.make ni 0 and cmp_refs = Array.make ni 0 in
  let bump a x = match H.node x with H.Value w -> a.(w) <- a.(w) + 1 | _ -> () in
  Array.iter
    (fun p ->
      match Option.map H.node p with
      | Some (H.Cmp (op, x, y)) ->
          bump cmp_refs x;
          bump cmp_refs y;
          if op = Ir.Types.Eq then bump eq_refs y
      | _ -> ())
    st.pred_edge;
  if st.config.Pgvn.Config.pred_closure then
    Array.iter
      (function Some (c, _) -> cmp_refs.(c) <- cmp_refs.(c) + 1 | None -> ())
      st.switch_default;
  let nc = Util.Vec.length st.classes in
  let eq_cls = Array.make nc 0 and cmp_cls = Array.make nc 0 in
  for v = 0 to ni - 1 do
    if st.eq_fact_refs.(v) <> eq_refs.(v) then
      fail "v%d: eq_fact_refs %d, recount %d" v st.eq_fact_refs.(v) eq_refs.(v);
    if st.cmp_fact_refs.(v) <> cmp_refs.(v) then
      fail "v%d: cmp_fact_refs %d, recount %d" v st.cmp_fact_refs.(v) cmp_refs.(v);
    let c = st.class_of.(v) in
    eq_cls.(c) <- eq_cls.(c) + eq_refs.(v);
    cmp_cls.(c) <- cmp_cls.(c) + cmp_refs.(v)
  done;
  for c = 0 to nc - 1 do
    let k = cls st c in
    if k.eq_facts <> eq_cls.(c) then fail "class %d: eq_facts %d, recount %d" c k.eq_facts eq_cls.(c);
    if k.cmp_facts <> cmp_cls.(c) then
      fail "class %d: cmp_facts %d, recount %d" c k.cmp_facts cmp_cls.(c)
  done;
  match List.rev !errors with [] -> None | e :: _ -> Some e

(* The first (block, leader value) or (block, branch condition) where the
   engine's walks and the reference walks answer differently, or record
   different claims, if any. *)
let walk_mismatch (st : Pgvn.State.t) =
  let open Pgvn.State in
  let f = st.f in
  let leaders =
    List.filter_map
      (fun c -> match (cls st c).leader with Lvalue l -> Some l | Lundef | Lconst _ -> None)
      (List.init (Util.Vec.length st.classes) Fun.id)
  in
  let conds =
    List.filter_map
      (fun b ->
        match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
        | Ir.Func.Branch c -> Some c
        | _ -> None)
      (List.init (Ir.Func.num_blocks f) Fun.id)
  in
  let opt_equal a b = Option.equal H.equal a b in
  let show = function None -> "none" | Some e -> H.to_string e in
  let first = ref None in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    if st.reach_block.(b) && !first = None then begin
      List.iter
        (fun v ->
          let got = Pgvn.Driver.eval_operand st b v and want = Walk_oracle.eval_operand st b v in
          if !first = None && not (opt_equal got want) then
            first := Some (Printf.sprintf "value v%d at b%d: %s, oracle %s" v b (show got) (show want)))
        leaders;
      List.iter
        (fun c ->
          let atom = Pgvn.Driver.eval_operand st b c in
          st.stats.Pgvn.Run_stats.claims <- [];
          let gt, gf = Pgvn.Driver.branch_predicates st b atom in
          let got_claims =
            List.filter
              (fun c -> c.Pgvn.Run_stats.by <> Pgvn.Run_stats.Closure)
              (List.rev st.stats.Pgvn.Run_stats.claims)
          in
          let (wt, wf), want_claims = Walk_oracle.branch_predicates st b atom in
          if !first = None && not (opt_equal gt wt && opt_equal gf wf) then
            first :=
              Some
                (Printf.sprintf "branch on v%d at b%d: %s / %s, oracle %s / %s" c b (show gt)
                   (show gf) (show wt) (show wf));
          if !first = None && got_claims <> want_claims then
            first :=
              Some
                (Printf.sprintf "branch on v%d at b%d: %d claims, oracle %d" c b
                   (List.length got_claims) (List.length want_claims)))
        conds
    end
  done;
  !first

let check_routine ~configs ~check f =
  List.iter
    (fun (name, config) ->
      match run config f with
      | None -> ()
      | Some st -> (
          match check st with
          | None -> ()
          | Some m -> QCheck.Test.fail_reportf "%s on %s: %s" name f.Ir.Func.name m))
    configs;
  true

let generated seed =
  let profile = { Workload.Generator.default_profile with stmt_budget = 60; max_depth = 6 } in
  Workload.Generator.func ~profile ~seed ~name:"w" ()

let prop_counts_match =
  QCheck.Test.make ~name:"walk counts match brute-force recounts" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100000))
    (fun seed -> check_routine ~configs:count_configs ~check:count_mismatch (generated seed))

let prop_walks_match =
  QCheck.Test.make ~name:"walks answer as the reference walks" ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 100000))
    (fun seed -> check_routine ~configs:walk_configs ~check:walk_mismatch (generated seed))

(* The shipped examples and corpus, which exercise inference on purpose,
   plus Figure 9 ladders and guard nests. *)
let test_fixed_routines () =
  let shipped =
    List.concat_map
      (fun (_, src) ->
        List.map
          (fun r -> Ssa.Construct.of_cir (Ir.Lower.lower_routine r))
          (Ir.Parser.parse_program src))
      (Helpers.shipped_sources ())
  in
  List.iter
    (fun f ->
      ignore (check_routine ~configs:count_configs ~check:count_mismatch f);
      ignore (check_routine ~configs:walk_configs ~check:walk_mismatch f))
    (shipped
    @ List.map Workload.Pathological.ladder_func [ 4; 16; 48 ]
    @ List.map Workload.Pathological.guard_nest_func [ 5; 30 ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_counts_match;
    QCheck_alcotest.to_alcotest prop_walks_match;
    Alcotest.test_case "shipped routines, ladders and guard nests" `Quick test_fixed_routines;
  ]
