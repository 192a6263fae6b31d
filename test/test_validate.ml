(* The translation validator: the independent oracle's partition, the
   witness audit (Engine 1), the behavioral diff (Engine 2), and their
   integration into the pipeline.

   The negative tests are the heart of the suite: hand-written miscompile
   mutants — a wrong leader, a dropped predicate (branch folded although the
   edge is taken), a wrong constant, a bogus φ collapse, a swapped back-edge
   φ argument — must each be rejected with the right check id and the
   precise pre-pass location. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let find_instrs p (f : Ir.Func.t) =
  let acc = ref [] in
  Array.iteri (fun i ins -> if p ins then acc := i :: !acc) f.Ir.Func.instrs;
  List.rev !acc

(* The value returned by the first Return instruction. *)
let return_value (f : Ir.Func.t) =
  match
    find_instrs (function Ir.Func.Return _ -> true | _ -> false) f
    |> List.map (fun i ->
           match f.Ir.Func.instrs.(i) with Ir.Func.Return v -> v | _ -> assert false)
  with
  | v :: _ -> v
  | [] -> Alcotest.fail "no return instruction"

let has_error_diag ~check ~loc (r : Validate.Audit.report) =
  List.exists
    (fun d ->
      d.Check.Diagnostic.severity = Check.Diagnostic.Error
      && d.Check.Diagnostic.check = check
      && d.Check.Diagnostic.loc = loc)
    r.Validate.Audit.diagnostics

(* --- the oracle ------------------------------------------------------- *)

let test_oracle_congruence () =
  let f = Helpers.func_of_src "routine f(a, b) { x = a + b; y = a + b; return x - y; }" in
  let o = Validate.Oracle.run f in
  (match find_instrs (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) f with
  | [ x; y ] ->
      Alcotest.(check bool) "the two a+b are congruent" true (Validate.Oracle.congruent o x y)
  | _ -> Alcotest.fail "expected exactly two adds");
  Alcotest.(check (option int)) "x - y folds to 0" (Some 0)
    (Validate.Oracle.constant o (return_value f))

let test_oracle_reachability () =
  let f = Helpers.func_of_src "routine f(a) { r = 1; if (2 == 3) { r = f0(a); } return r; }" in
  let o = Validate.Oracle.run f in
  (match find_instrs (function Ir.Func.Opaque _ -> true | _ -> false) f with
  | [ opq ] ->
      Alcotest.(check bool) "dead guard's block is unreachable" false
        (Validate.Oracle.block_reachable o (Ir.Func.block_of_instr f opq))
  | _ -> Alcotest.fail "expected exactly one opaque call");
  Alcotest.(check (option int)) "the return is the constant 1" (Some 1)
    (Validate.Oracle.constant o (return_value f))

let test_oracle_cyclic () =
  (* The classic optimistic case: two lockstep counters are congruent, so
     their difference is 0 — provable only if the φs are numbered
     optimistically through the back edge. *)
  let f =
    Helpers.func_of_src
      "routine f(n) { i = 0; j = 0; while (i < n) { i = i + 1; j = j + 1; } return i - j; }"
  in
  let o = Validate.Oracle.run f in
  Alcotest.(check (option int)) "i - j is 0 through the loop" (Some 0)
    (Validate.Oracle.constant o (return_value f));
  Alcotest.(check bool) "took more than one round" true (Validate.Oracle.rounds o > 1)

let test_oracle_identities () =
  let f = Helpers.func_of_src "routine f(a) { x = a + 0; z = a - a; return x + z; }" in
  let o = Validate.Oracle.run f in
  let param =
    match find_instrs (function Ir.Func.Param 0 -> true | _ -> false) f with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one param"
  in
  (match find_instrs (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) f with
  | x :: _ ->
      Alcotest.(check bool) "a + 0 is a" true (Validate.Oracle.congruent o x param)
  | [] -> Alcotest.fail "expected an add");
  (match find_instrs (function Ir.Func.Binop (Ir.Types.Sub, _, _) -> true | _ -> false) f with
  | [ z ] -> Alcotest.(check (option int)) "a - a is 0" (Some 0) (Validate.Oracle.constant o z)
  | _ -> Alcotest.fail "expected one sub");
  Alcotest.(check bool) "x + z collapses to a" true
    (Validate.Oracle.congruent o (return_value f) param)

(* --- Engine 1: the audit on real rewrites ------------------------------ *)

let test_audit_corpus_clean () =
  (* Every hand-written corpus routine, under every configuration: the
     engine's own witnesses must never be refuted. *)
  List.iter
    (fun (name, src) ->
      let f = Helpers.func_of_src src in
      List.iter
        (fun (cname, config) ->
          let st = Pgvn.Driver.run config f in
          let _, witnesses = Transform.Apply.rebuild_witnessed st f in
          let r = Validate.Audit.run ~pass:cname f witnesses in
          if not (Validate.Audit.ok r) then
            Alcotest.failf "%s under %s: %d rewrites rejected" name cname
              r.Validate.Audit.rejected)
        Helpers.all_configs)
    Workload.Corpus.all_named

let test_audit_precision_win () =
  (* Predicate inference proves a == b inside the guard — beyond the oracle,
     so the audit must file the rewrites as precision wins, not errors. *)
  let f =
    Helpers.func_of_src
      "routine g(x, y) { r = 0; if (x == y) { a = x + 1; b = y + 1; r = a - b; } return r; }"
  in
  let st = Pgvn.Driver.run Pgvn.Config.full f in
  let _, witnesses = Transform.Apply.rebuild_witnessed st f in
  let r = Validate.Audit.run ~pass:"gvn#1" f witnesses in
  Alcotest.(check int) "nothing rejected" 0 r.Validate.Audit.rejected;
  Alcotest.(check bool) "some rewrites beyond the oracle" true (r.Validate.Audit.unproven > 0);
  Alcotest.(check bool) "precision wins reported as Info" true
    (List.exists
       (fun d ->
         d.Check.Diagnostic.severity = Check.Diagnostic.Info
         && d.Check.Diagnostic.check = "validate-precision-win")
       r.Validate.Audit.diagnostics)

(* --- Engine 1: miscompile mutants -------------------------------------- *)

let straightline () = Helpers.func_of_src "routine f(a, b) { x = a + 1; y = b + 2; return x + y; }"

let xy f =
  match find_instrs (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) f with
  | x :: y :: _ -> (x, y)
  | _ -> Alcotest.fail "expected two adds"

let test_mutant_wrong_leader () =
  (* Claim y (= b+2) is congruent to x (= a+1): refuted concretely. *)
  let f = straightline () in
  let x, y = xy f in
  let w = Validate.Witness.Replace { v = y; leader = x; cid = 0 } in
  let r = Validate.Audit.run ~pass:"gvn#1" f [ w ] in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  Alcotest.(check bool) "diagnostic at the rewritten instr" true
    (has_error_diag ~check:"validate-replace" ~loc:(Check.Diagnostic.Instr y) r)

let test_mutant_leader_out_of_scope () =
  (* Claim x is congruent to the later y: statically rejected — the leader's
     definition does not dominate the use. *)
  let f = straightline () in
  let x, y = xy f in
  let r =
    Validate.Audit.run ~pass:"gvn#1" f [ Validate.Witness.Replace { v = x; leader = y; cid = 0 } ]
  in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  match r.Validate.Audit.outcomes with
  | [ { verdict = Validate.Audit.Rejected why; _ } ] ->
      Alcotest.(check bool) "names the dominance violation" true (contains why "dominate")
  | _ -> Alcotest.fail "expected one rejected outcome"

let test_mutant_wrong_constant () =
  let f = straightline () in
  let x, _ = xy f in
  let r =
    Validate.Audit.run ~pass:"gvn#1" f [ Validate.Witness.Fold_const { v = x; c = 99; cid = 0 } ]
  in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  Alcotest.(check bool) "diagnostic at the folded instr" true
    (has_error_diag ~check:"validate-constant" ~loc:(Check.Diagnostic.Instr x) r)

let guarded () = Helpers.func_of_src "routine f(a) { r = 1; if (a > 0) { r = 2; } return r; }"

let branch_true_edge f =
  match find_instrs (function Ir.Func.Branch _ -> true | _ -> false) f with
  | [ br ] -> (Ir.Func.block f (Ir.Func.block_of_instr f br)).Ir.Func.succs.(0)
  | _ -> Alcotest.fail "expected one branch"

let test_mutant_dropped_predicate () =
  (* Fold the a > 0 branch as if its true edge were unreachable: the edge is
     taken whenever a > 0, so the audit must refute the fold. *)
  let f = guarded () in
  let e = branch_true_edge f in
  let r = Validate.Audit.run ~pass:"gvn#1" f [ Validate.Witness.Drop_edge { edge = e } ] in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  Alcotest.(check bool) "diagnostic at the folded edge" true
    (has_error_diag ~check:"validate-edge-unreachable" ~loc:(Check.Diagnostic.Edge e) r)

let test_mutant_dropped_live_block () =
  let f = guarded () in
  let b = (Ir.Func.edge f (branch_true_edge f)).Ir.Func.dst in
  let r = Validate.Audit.run ~pass:"gvn#1" f [ Validate.Witness.Drop_block { block = b } ] in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  Alcotest.(check bool) "diagnostic at the dropped block" true
    (has_error_diag ~check:"validate-block-unreachable" ~loc:(Check.Diagnostic.Block b) r)

let test_mutant_bogus_phi_collapse () =
  (* Collapse the join φ to its then-side argument, claiming the other
     incoming edge is dead: refuted whenever a <= 0. *)
  let f = guarded () in
  let phi, args, preds =
    let found = ref None in
    Array.iteri
      (fun i ins ->
        match ins with
        | Ir.Func.Phi args when Array.length args = 2 ->
            found := Some (i, args, (Ir.Func.block f (Ir.Func.block_of_instr f i)).Ir.Func.preds)
        | _ -> ())
      f.Ir.Func.instrs;
    match !found with Some x -> x | None -> Alcotest.fail "expected a 2-input phi"
  in
  (* Keep the argument carried by the then-side edge (the one whose source
     is not the entry block). *)
  let keep_ix =
    if (Ir.Func.edge f preds.(0)).Ir.Func.src <> Ir.Func.entry then 0 else 1
  in
  let w =
    Validate.Witness.Collapse_phi
      { phi; arg = args.(keep_ix); kept_edge = preds.(keep_ix) }
  in
  let r = Validate.Audit.run ~pass:"gvn#1" f [ w ] in
  Alcotest.(check int) "rejected" 1 r.Validate.Audit.rejected;
  Alcotest.(check bool) "diagnostic at the phi" true
    (has_error_diag ~check:"validate-phi-collapse" ~loc:(Check.Diagnostic.Instr phi) r)

(* --- Engine 2: behavioral diff with pass attribution ------------------- *)

let test_equiv_phi_arg_swap () =
  (* The canonical silent miscompile: swap a loop header φ's entry and
     back-edge arguments. Structure is untouched, so only the behavioral
     engine can see it — and it must blame the pass instance. *)
  let f =
    Helpers.func_of_src
      "routine m(n, a, b) { x = a; i = 0; while (i < n) { x = b; i = i + 1; } return x; }"
  in
  let target = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ir.Func.Phi args
        when Array.length args = 2
             && Array.for_all
                  (fun a ->
                    match f.Ir.Func.instrs.(a) with Ir.Func.Param _ -> true | _ -> false)
                  args ->
          target := i
      | _ -> ())
    f.Ir.Func.instrs;
  if !target < 0 then Alcotest.fail "expected the x = phi(a, b) header phi";
  let mutant =
    {
      f with
      Ir.Func.instrs =
        Array.mapi
          (fun i ins ->
            match ins with
            | Ir.Func.Phi args when i = !target -> Ir.Func.Phi [| args.(1); args.(0) |]
            | _ -> ins)
          f.Ir.Func.instrs;
    }
  in
  let r = Validate.Equiv.check ~pass:"gvn#1" f mutant in
  Alcotest.(check bool) "mismatch detected" false (Validate.Equiv.ok r);
  Alcotest.(check string) "blamed pass instance" "gvn#1" r.Validate.Equiv.pass;
  match Validate.Equiv.diagnostics r with
  | d :: _ ->
      Alcotest.(check bool) "message attributes the pass" true
        (contains d.Check.Diagnostic.message "gvn#1");
      Alcotest.(check bool) "message names the routine" true
        (contains d.Check.Diagnostic.message "m")
  | [] -> Alcotest.fail "expected a diagnostic"

let test_equiv_clean_on_identity () =
  let f = guarded () in
  let r = Validate.Equiv.check ~pass:"noop#1" f f in
  Alcotest.(check bool) "identical functions agree" true (Validate.Equiv.ok r);
  Alcotest.(check bool) "battery actually ran" true (r.Validate.Equiv.runs > 0)

(* --- pipeline and report integration ----------------------------------- *)

let test_pipeline_validates_corpus () =
  List.iter
    (fun (name, src) ->
      let f = Helpers.func_of_src src in
      List.iter
        (fun (cname, config) ->
          let r =
            let opts =
              Transform.Pipeline.Options.(
                default |> with_config config |> with_validate Validate.All)
            in
            Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ~rounds:1 ()) f
          in
          match r.Transform.Pipeline.validation with
          | None -> Alcotest.failf "%s under %s: no validation report" name cname
          | Some v ->
              if not (Validate.Report.clean v) then
                Alcotest.failf "%s under %s: validator rejected a pass" name cname)
        Helpers.all_configs)
    Workload.Corpus.all_named

let test_pipeline_validates_suite () =
  (* The ten-benchmark corpus, certified under every preset. *)
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          List.iter
            (fun (cname, config) ->
              let r =
                let opts =
                  Transform.Pipeline.Options.(
                    default |> with_config config |> with_validate Validate.All)
                in
                Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ~rounds:1 ()) f
              in
              match r.Transform.Pipeline.validation with
              | Some v when Validate.Report.clean v -> ()
              | _ -> Alcotest.failf "%s/%s under %s: validation failed" b.Workload.Suite.name
                       f.Ir.Func.name cname)
            Helpers.all_configs)
        funcs)
    (Workload.Suite.all ~scale:0.05 ())

let test_validation_report_shape () =
  let f = Workload.Generator.func ~seed:4242 ~name:"w" () in
  let r =
    let opts = Transform.Pipeline.Options.(default |> with_validate Validate.All) in
    Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f
  in
  match r.Transform.Pipeline.validation with
  | None -> Alcotest.fail "expected a validation report"
  | Some v ->
      Alcotest.(check bool) "per-pass entries recorded" true (List.length v.Validate.Report.passes > 0);
      Alcotest.(check bool) "overhead accounted" true (Validate.Report.overhead_seconds v >= 0.0);
      let t = Validate.Report.totals v in
      Alcotest.(check bool) "behavioral runs executed" true (t.Validate.Report.equiv_runs > 0);
      Alcotest.(check int) "no mismatches" 0 t.Validate.Report.mismatches;
      Alcotest.(check int) "no rejections" 0 t.Validate.Report.rejected;
      Alcotest.(check bool) "report is clean" true (Validate.Report.clean v)

(* A miscompiling pass under the behavioural diff: the refutation is
   recorded, not raised, against the pass in per-pass mode and against the
   list's caller-given name in whole-list mode. *)
let test_pipeline_records_refuted_pass () =
  let module P = Transform.Pipeline in
  let f = Helpers.func_of_src "routine f(a) { return a + 1; }" in
  let miscompile =
    {
      P.Pass.name = "bad#1";
      kind = P.Lvn;
      transform = (fun _ ~name:_ _ -> Ok (Helpers.func_of_src "routine f(a) { return a + 2; }", []));
      certifier = None;
    }
  in
  let passes = [ P.Pass.dce ~name:"dce#1"; miscompile; P.Pass.simplify_cfg ~name:"cfg#1" ] in
  (* Each report entry, and whether it carries the behaviour refutation
     under its own name. *)
  let entries opts =
    match (P.run_list opts passes f).P.validation with
    | None -> Alcotest.fail "expected a validation report"
    | Some v ->
        List.map
          (fun (p : Validate.Report.pass) ->
            let blames d =
              Check.Diagnostic.is_error d
              && d.Check.Diagnostic.check = "validate-behavior"
              && contains d.Check.Diagnostic.message p.Validate.Report.pass
            in
            (p.Validate.Report.pass, List.exists blames (Validate.Report.pass_diagnostics p)))
          v.Validate.Report.passes
  in
  Alcotest.(check (list (pair string bool)))
    "per pass: blamed on the pass"
    [ ("dce#1", false); ("bad#1", true); ("cfg#1", false) ]
    (entries P.Options.(default |> with_validate Validate.Diff));
  Alcotest.(check (list (pair string bool)))
    "whole list: one entry, blamed on the list" [ ("whole", true) ]
    (entries P.Options.(default |> with_validate ~whole:"whole" Validate.Diff))

let suite =
  [
    Alcotest.test_case "oracle: congruence and x-x folding" `Quick test_oracle_congruence;
    Alcotest.test_case "oracle: constant branch reachability" `Quick test_oracle_reachability;
    Alcotest.test_case "oracle: optimistic cyclic congruence" `Quick test_oracle_cyclic;
    Alcotest.test_case "oracle: algebraic identities" `Quick test_oracle_identities;
    Alcotest.test_case "audit: corpus clean under all configs" `Quick test_audit_corpus_clean;
    Alcotest.test_case "audit: predicated wins are Info, not errors" `Quick
      test_audit_precision_win;
    Alcotest.test_case "mutant: wrong leader rejected" `Quick test_mutant_wrong_leader;
    Alcotest.test_case "mutant: out-of-scope leader rejected" `Quick
      test_mutant_leader_out_of_scope;
    Alcotest.test_case "mutant: wrong constant rejected" `Quick test_mutant_wrong_constant;
    Alcotest.test_case "mutant: dropped predicate rejected" `Quick test_mutant_dropped_predicate;
    Alcotest.test_case "mutant: live block dropped rejected" `Quick
      test_mutant_dropped_live_block;
    Alcotest.test_case "mutant: bogus phi collapse rejected" `Quick
      test_mutant_bogus_phi_collapse;
    Alcotest.test_case "engine 2: back-edge phi swap caught and attributed" `Quick
      test_equiv_phi_arg_swap;
    Alcotest.test_case "engine 2: identity is clean" `Quick test_equiv_clean_on_identity;
    Alcotest.test_case "pipeline: corpus certifies under all configs" `Slow
      test_pipeline_validates_corpus;
    Alcotest.test_case "pipeline: benchmark suite certifies under all presets" `Slow
      test_pipeline_validates_suite;
    Alcotest.test_case "pipeline: validation report shape" `Quick test_validation_report_shape;
    Alcotest.test_case "pipeline: a refuted pass is recorded, not raised" `Quick
      test_pipeline_records_refuted_pass;
  ]
