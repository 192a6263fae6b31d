(* The GCM transform pass: corpus-wide certified rebuilds that preserve
   observable behavior, the LICM shape it exists for, the pipeline pass-list
   integration, and the seeded illegal-plan mutants — a corrupted plan must
   be refuted by [Gcm.certify] with its exact pinned [sched-*] id, never
   silently rebuilt. test_schedule.ml pins the checker against raw placement
   vectors; this suite pins the transform's use of it. *)

module Gcm = Transform.Gcm

let func_of_src = Workload.Corpus.func_of_src

let find_instr f p =
  let found = ref (-1) in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    if !found < 0 && p (Ir.Func.instr f i) then found := i
  done;
  if !found < 0 then Alcotest.fail "expected instruction not found";
  !found

let checks errs = List.sort_uniq compare (List.map (fun d -> d.Check.Diagnostic.check) errs)

(* A corrupted plan must be refuted with exactly [expected], all Errors. *)
let expect_refused msg (p : Gcm.plan) expected =
  let errs = Check.errors (Gcm.certify p) in
  if errs = [] then Alcotest.failf "%s: corrupted plan certified" msg;
  Alcotest.(check (list string)) msg expected (checks errs)

(* ------------------------------------------------------------------ *)
(* Certified rebuilds over the corpus                                  *)

(* Every hand-written corpus routine and a spread of generated programs:
   the plan certifies, the rebuild verifies as SSA, the CFG shape is
   preserved, and behavior is unchanged on random inputs. *)
let test_corpus_certified () =
  let try_func name f =
    match Gcm.run f with
    | exception Gcm.Rejected { diagnostics } ->
        Alcotest.failf "%s: plan rejected: %s" name
          (Check.Diagnostic.to_string (List.hd diagnostics))
    | g, p ->
        let s = Gcm.stats p in
        ignore (Check.check_exn g);
        Alcotest.(check int)
          (name ^ ": same block count") (Ir.Func.num_blocks f) (Ir.Func.num_blocks g);
        Alcotest.(check int)
          (name ^ ": same edge count") (Ir.Func.num_edges f) (Ir.Func.num_edges g);
        if s.Gcm.moved < s.Gcm.hoisted + s.Gcm.sunk then
          Alcotest.failf "%s: moved %d < hoisted %d + sunk %d" name s.Gcm.moved s.Gcm.hoisted
            s.Gcm.sunk;
        if not (Helpers.equivalent ~seed:41 f g) then
          Alcotest.failf "%s: behavior changed under GCM" name
  in
  List.iter (fun (name, src) -> try_func name (func_of_src src)) Workload.Corpus.all_named;
  for seed = 1 to 25 do
    try_func
      (Printf.sprintf "gen%d" seed)
      (Workload.Generator.func ~seed ~name:"gcm" ())
  done

(* The rebuild after a no-motion plan is the input itself (byte-stable
   no-op), not a structurally equal copy. *)
let test_noop_is_physical_identity () =
  let f = func_of_src "routine f(a) { return a + 1; }" in
  let g, p = Gcm.run f in
  Alcotest.(check int) "nothing to move" 0 (Gcm.stats p).Gcm.moved;
  Alcotest.(check bool) "no-op returns the input" true (f == g)

(* ------------------------------------------------------------------ *)
(* The LICM shape                                                      *)

(* The invariant multiply inside the loop is hoisted out of it — the
   canonical Click '95 win this pass exists for. *)
let test_licm_hoist () =
  let f =
    func_of_src
      "routine f(a, n) { i = 0; s = 0; while (i < n) { s = s + a * 3; i = i + 1; } return s; \
       }"
  in
  let p = Gcm.plan f in
  let s = Gcm.stats p in
  Alcotest.(check bool) "something hoisted" true (s.Gcm.hoisted >= 1);
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Mul, _, _) -> true | _ -> false) in
  let fr = Schedule.Placement.forest p.Gcm.placement in
  let from_depth = Analysis.Loops.depth_at fr (Ir.Func.block_of_instr f x) in
  let to_depth = Analysis.Loops.depth_at fr p.Gcm.target.(x) in
  Alcotest.(check int) "multiply starts in the loop" 1 from_depth;
  Alcotest.(check int) "multiply lands outside it" 0 to_depth;
  let g, rp = Gcm.run f in
  Alcotest.(check bool) "run moves it" true ((Gcm.stats rp).Gcm.moved >= 1);
  if not (Helpers.equivalent ~seed:43 f g) then Alcotest.fail "LICM rebuild changed behavior";
  (* In the rebuilt function the multiply really sits at loop depth 0. *)
  let gx = find_instr g (function Ir.Func.Binop (Ir.Types.Mul, _, _) -> true | _ -> false) in
  let gfr = Analysis.Loops.forest (Analysis.Graph.of_func g) in
  Alcotest.(check int) "rebuilt multiply is outside the loop" 0
    (Analysis.Loops.depth_at gfr (Ir.Func.block_of_instr g gx))

(* A guarded division stays under its guard: the facts that clear it do
   not hold above, so the plan pins it and counts the block. *)
let test_guarded_div_pinned () =
  let f = func_of_src "routine f(a, b) { if (b != 0) { return a / b; } return 0; }" in
  let p = Gcm.plan f in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  Alcotest.(check int) "division not moved" (Ir.Func.block_of_instr f d) p.Gcm.target.(d);
  let s = Gcm.stats p in
  Alcotest.(check bool) "speculation block counted" true (s.Gcm.speculation_blocked >= 1)

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)

let test_pipeline_with_gcm () =
  let f =
    func_of_src
      "routine f(a, n) { i = 0; s = 0; while (i < n) { s = s + a * 3; i = i + 1; } return s; \
       }"
  in
  let r =
    Transform.Pipeline.run_list Transform.Pipeline.Options.default
      (Transform.Pipeline.standard_passes ~gcm:true ())
      f
  in
  (match r.Transform.Pipeline.gcm_plan with
  | None -> Alcotest.fail "gcm_plan missing with a GCM pass"
  | Some p ->
      Alcotest.(check bool) "pipeline GCM moved the invariant" true
        ((Gcm.stats p).Gcm.moved >= 1));
  let has_gcm_timing =
    List.exists
      (fun t -> t.Transform.Pipeline.kind = Transform.Pipeline.Gcm)
      r.Transform.Pipeline.timings
  in
  Alcotest.(check bool) "gcm pass timed" true has_gcm_timing;
  if not (Helpers.equivalent ~seed:47 f r.Transform.Pipeline.func) then
    Alcotest.fail "pipeline with GCM changed behavior";
  (* Off by default: no plan, no pass. *)
  let r0 =
    Transform.Pipeline.run_list Transform.Pipeline.Options.default
      (Transform.Pipeline.standard_passes ())
      f
  in
  Alcotest.(check bool) "no gcm_plan by default" true
    (r0.Transform.Pipeline.gcm_plan = None)

(* ------------------------------------------------------------------ *)
(* Seeded illegal-plan mutants                                         *)

(* Each mutant corrupts the plan's target vector the way a buggy planner
   would, and must be refused by [certify] with the exact pinned id. *)

let test_mutant_phi_moved () =
  let f = func_of_src "routine f(n) { i = 0; while (i < n) { i = i + 1; } return i; }" in
  let p = Gcm.plan f in
  let phi = find_instr f (function Ir.Func.Phi _ -> true | _ -> false) in
  p.Gcm.target.(phi) <- Ir.Func.entry;
  expect_refused "phi moved off its join" p [ "sched-phi" ]

let test_mutant_div_hoisted () =
  (* [a] is used on both arms so the plan keeps both operands at entry and
     the corrupted hoist trips speculation alone. *)
  let f = func_of_src "routine f(a, b) { if (b != 0) { return a / b; } return a; }" in
  let p = Gcm.plan f in
  let d = find_instr f (function Ir.Func.Binop (Ir.Types.Div, _, _) -> true | _ -> false) in
  p.Gcm.target.(d) <- Ir.Func.entry;
  expect_refused "faulting div hoisted past its guard" p [ "sched-speculation" ]

let test_mutant_into_loop () =
  let f =
    func_of_src
      "routine f(a, n) { x = a * 3; i = 0; s = 0; while (i < n) { s = s + x; i = i + 1; } \
       return s; }"
  in
  let p = Gcm.plan f in
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Mul, _, _) -> true | _ -> false) in
  let fr = Analysis.Loops.forest (Analysis.Graph.of_func f) in
  Alcotest.(check int) "one loop" 1 (Array.length fr.Analysis.Loops.loops);
  p.Gcm.target.(x) <- fr.Analysis.Loops.loops.(0).Analysis.Loops.header;
  expect_refused "invariant pushed into the loop" p [ "sched-loop-depth" ]

let test_mutant_def_below_use () =
  let f = func_of_src "routine f(a) { x = a + 1; if (a > 0) { return x; } return 0; }" in
  let p = Gcm.plan f in
  let x = find_instr f (function Ir.Func.Binop (Ir.Types.Add, _, _) -> true | _ -> false) in
  let other_arm =
    Ir.Func.block_of_instr f
      (find_instr f (function
        | Ir.Func.Return v -> (
            match Ir.Func.instr f v with Ir.Func.Const 0 -> true | _ -> false)
        | _ -> false))
  in
  p.Gcm.target.(x) <- other_arm;
  expect_refused "def moved below a use" p [ "sched-dominance" ]

let suite =
  [
    Alcotest.test_case "corpus rebuilds certify and preserve behavior" `Quick
      test_corpus_certified;
    Alcotest.test_case "no-motion run is a physical no-op" `Quick test_noop_is_physical_identity;
    Alcotest.test_case "LICM shape hoists the invariant multiply" `Quick test_licm_hoist;
    Alcotest.test_case "guarded division stays pinned" `Quick test_guarded_div_pinned;
    Alcotest.test_case "pipeline pass-list integration" `Quick test_pipeline_with_gcm;
    Alcotest.test_case "mutant: phi moved" `Quick test_mutant_phi_moved;
    Alcotest.test_case "mutant: div hoisted past guard" `Quick test_mutant_div_hoisted;
    Alcotest.test_case "mutant: move into deeper loop" `Quick test_mutant_into_loop;
    Alcotest.test_case "mutant: def below use" `Quick test_mutant_def_below_use;
  ]
