(* The lint tier. Two severities, deliberately:

   - {b Warning} — the program is probably wrong: a division that traps on
     every execution, a read of a register no path ever assigns. These are
     statements about the *source*, and [--Werror] should fail on them.
   - {b Info} — the program is fine but an optimization pipeline left money
     on the table: unreachable or never-executing blocks, dead values,
     trivial φs, forwarder blocks, compile-time-decidable branches. These
     fire routinely on *input* IR (that is what the optimizer is for), so
     they must not fail [--Werror]; they were downgraded from Warning when
     the semantic lints joined, because every nontrivial example program
     legitimately trips several of them before optimization.

   The structural sub-tier works from the CFG alone; the semantic sub-tier
   consults the sparse interval analysis ([Absint.Ranges]) and so sees
   through guards: a branch decided by dominating conditions, a divisor
   that is provably zero, code only reachable through contradictory
   predicates. *)

open Ir.Func

let run (f : Ir.Func.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ni = num_instrs f in
  (* Unreachable blocks. *)
  let ctx = Analysis.Ctx.create f in
  let reach = Analysis.Graph.reachable (Analysis.Ctx.graph ctx f) in
  Array.iteri
    (fun b r ->
      if not r then
        add
          (Diagnostic.info ~check:"lint-unreachable-block" ~loc:(Diagnostic.Block b)
             "b%d is unreachable from the entry" b))
    reach;
  (* Dead pure instructions: nothing in this IR has side effects, so a value
     is live only if a terminator transitively depends on it (the same
     notion DCE uses). *)
  let live = Array.make ni false in
  let rec mark v =
    if v >= 0 && v < ni && not live.(v) then begin
      live.(v) <- true;
      iter_operands mark (instr f v)
    end
  in
  Array.iter
    (fun ins -> match ins with Branch c | Switch (c, _) | Return c -> mark c | _ -> ())
    f.instrs;
  Array.iteri
    (fun i ins ->
      if defines_value ins && not live.(i) then
        add
          (Diagnostic.info ~check:"lint-dead-instr" ~loc:(Diagnostic.Instr i)
             "v%d is pure and unused (DCE fodder)" i))
    f.instrs;
  (* Trivial φs: all arguments equal, ignoring self-references. *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Phi args ->
          let distinct =
            Array.to_list args |> List.filter (fun v -> v <> i) |> List.sort_uniq compare
          in
          if List.length distinct <= 1 then
            add
              (Diagnostic.info ~check:"lint-trivial-phi" ~loc:(Diagnostic.Instr i)
                 "φ v%d merges only %s" i
                 (match distinct with [ v ] -> Printf.sprintf "v%d" v | _ -> "itself"))
      | _ -> ())
    f.instrs;
  (* Forwarder blocks: a lone unconditional jump (the entry is exempt: it
     may legitimately forward into a loop header). *)
  Array.iteri
    (fun b (blk : block) ->
      if
        b <> entry
        && Array.length blk.instrs = 1
        && (match instr f blk.instrs.(0) with Jump -> true | _ -> false)
      then
        add
          (Diagnostic.info ~check:"lint-empty-block" ~loc:(Diagnostic.Block b)
             "b%d contains only a jump" b))
    f.blocks;
  (* Critical edges: src has several successors and dst several
     predecessors. Nothing can be inserted "on" such an edge, and
     mis-associating φ arguments across one is exactly the miscompile class
     the translation validator's behavior engine hunts. Info severity: the
     IR is fine, but edge-placement transforms would need a split. *)
  Array.iteri
    (fun e (edge : edge) ->
      if
        Array.length (block f edge.src).succs > 1
        && Array.length (block f edge.dst).preds > 1
      then
        add
          (Diagnostic.info ~check:"lint-critical-edge" ~loc:(Diagnostic.Edge e)
             "edge e%d (b%d -> b%d) is critical" e edge.src edge.dst))
    f.edges;
  (* Branches and switches on constants: the branch is decidable at compile
     time, so unreachable-code elimination left money on the table. *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Branch c | Switch (c, _) -> (
          if c >= 0 && c < ni then
            match instr f c with
            | Const n ->
                add
                  (Diagnostic.info ~check:"lint-const-branch" ~loc:(Diagnostic.Instr i)
                     "v%d branches on the constant %d" i n)
            | _ -> ())
      | _ -> ())
    f.instrs;
  (* ------------------------------------------------------------------ *)
  (* Semantic sub-tier: one sparse interval analysis (with branch
     refinement and loop widening) feeds the remaining lints.            *)
  let res = Absint.Ranges.run ~ctx f in
  let exec b = res.Absint.Ranges.block_exec.(b) in
  let env b v = Absint.Ranges.env_at res b v in
  (* Guaranteed division/remainder faults: executing the instruction always
     traps — either the divisor is zero, or the quotient min_int / -1
     overflows the machine word (the one other case [Ir.Types.fold_binop]
     refuses to fold). *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Binop (((Ir.Types.Div | Ir.Types.Rem) as op), n, d) ->
          let b = block_of_instr f i in
          if exec b then begin
            let verb = match op with Ir.Types.Div -> "divides" | _ -> "takes a remainder" in
            if Absint.Itv.is_const (env b d) = Some 0 then
              add
                (Diagnostic.warning ~check:"lint-div-by-zero" ~loc:(Diagnostic.Instr i)
                   "v%d always %s by zero: it traps on every execution reaching it" i verb)
            else if
              Absint.Itv.is_const (env b d) = Some (-1)
              && Absint.Itv.is_const (env b n) = Some min_int
            then
              add
                (Diagnostic.warning ~check:"lint-div-by-zero" ~loc:(Diagnostic.Instr i)
                   "v%d always overflows: it %s min_int by -1, which traps on every \
                    execution reaching it"
                   i verb)
          end
      | _ -> ())
    f.instrs;
  (* Branches decided by dominating guards rather than a literal constant
     condition (those are lint-const-branch's). *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Branch c when (match instr f c with Const _ -> false | _ -> true) -> (
          let b = block_of_instr f i in
          if exec b then
            match Absint.Itv.to_bool (env b c) with
            | Some true ->
                add
                  (Diagnostic.info ~check:"lint-branch-decided" ~loc:(Diagnostic.Instr i)
                     "branch v%d is always taken (dominating guards decide v%d ≠ 0)" i c)
            | Some false ->
                add
                  (Diagnostic.info ~check:"lint-branch-decided" ~loc:(Diagnostic.Instr i)
                     "branch v%d is never taken (dominating guards decide v%d = 0)" i c)
            | None -> ())
      | _ -> ())
    f.instrs;
  (* Blocks the interval semantics proves can never execute, though the
     bare CFG reaches them (the structural lint covers those). *)
  Array.iteri
    (fun b r ->
      if r && not (exec b) then
        add
          (Diagnostic.info ~check:"lint-absint-unreachable" ~loc:(Diagnostic.Block b)
             "b%d is structurally reachable but can never execute" b))
    reach;
  (* Dead stores, sparsely: liveness restricted to the executable sub-CFG.
     A value whose uses all sit in never-executing blocks is computed for
     nothing — invisible to the purely syntactic dead-instr lint above. *)
  let du = def_use f in
  Array.iteri
    (fun i ins ->
      if defines_value ins && exec (block_of_instr f i) && live.(i) then
        let users = du.(i) in
        if
          Array.length users > 0
          && Array.for_all (fun u -> not (exec (block_of_instr f u))) users
        then
          add
            (Diagnostic.info ~check:"lint-dead-store" ~loc:(Diagnostic.Instr i)
               "v%d is only used by code that can never execute" i))
    f.instrs;
  (* ------------------------------------------------------------------ *)
  (* Predicate-implication sub-tier: the multi-fact closure over the
     dominating branch facts (lib/pred) sees guard conjunctions that both
     the bare CFG and one-value interval refinement miss — x < y together
     with y < x, or x > 2 with x ≠ 3 deciding x > 3.                     *)
  let pfacts = Absint.Ranges.branch_facts res in
  let dom = Analysis.Ctx.dom ctx f in
  let contra b = Pred.Closure.contradictory (Pred.Facts.closure_at_block pfacts b) in
  (* Contradictory path conditions: the guards on the dominator path to a
     block are jointly unsatisfiable, so the block can never execute.
     Warning — a statement about the source: somebody wrote *code* under
     conditions that contradict each other. Scoped three ways: to
     contradictions the interval tier missed (when [exec b] is already
     false, lint-absint-unreachable reports it); to blocks that carry real
     instructions — an empty forwarder on a contradictory edge is just the
     branch's untaken arm, and lint-redundant-branch already reports the
     deciding branch; and to the highest such block — everything it
     dominates is contradictory too. *)
  let novel_contra b = reach.(b) && exec b && contra b in
  let has_code b =
    let blk = block f b in
    Array.exists (fun i -> not (is_phi (instr f i) || is_terminator (instr f i))) blk.instrs
  in
  let rec reported_above b =
    let d = dom.Analysis.Dom.idom.(b) in
    d >= 0 && d <> b && ((novel_contra d && has_code d) || reported_above d)
  in
  Array.iteri
    (fun b r ->
      if r && novel_contra b && has_code b && not (reported_above b) then
        add
          (Diagnostic.warning ~check:"lint-contradictory-path" ~loc:(Diagnostic.Block b)
             "b%d is guarded by contradictory conditions: no execution can reach it" b))
    reach;
  (* Branches the fact closure decides but interval refinement cannot —
     the multi-fact counterpart of lint-branch-decided, and like it Info:
     the source is fine, an optimizer just left the test in. *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Branch c when (match instr f c with Const _ -> false | _ -> true) -> (
          let b = block_of_instr f i in
          if exec b && (not (contra b)) && Absint.Itv.to_bool (env b c) = None then
            let cl = Pred.Facts.closure_at_block pfacts b in
            let verdict =
              match instr f c with
              | Cmp (op, x, y) ->
                  Pred.Closure.decide cl op (Pred.Facts.term_of f x) (Pred.Facts.term_of f y)
              | _ ->
                  Pred.Closure.decide cl Ir.Types.Ne (Pred.Facts.term_of f c)
                    (Pred.Atom.Const 0)
            in
            match verdict with
            | Pred.Closure.True ->
                add
                  (Diagnostic.info ~check:"lint-redundant-branch" ~loc:(Diagnostic.Instr i)
                     "branch v%d is always taken: the dominating facts imply v%d" i c)
            | Pred.Closure.False ->
                add
                  (Diagnostic.info ~check:"lint-redundant-branch" ~loc:(Diagnostic.Instr i)
                     "branch v%d is never taken: the dominating facts refute v%d" i c)
            | Pred.Closure.Unknown -> ())
      | _ -> ())
    f.instrs;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pre-SSA lints. SSA construction seeds every never-assigned register
   with a shared constant 0, after which a provably-uninitialized read is
   indistinguishable from a deliberate zero — so this lint must run on
   [Cir], before construction. *)

let run_cir (c : Ir.Cir.t) : Diagnostic.t list =
  let diags = ref [] in
  let nb = Ir.Cir.num_blocks c in
  let nr = c.Ir.Cir.nregs in
  let succ = Ir.Cir.succ_blocks c in
  let reach = Array.make nb false in
  let rec dfs b =
    if not reach.(b) then begin
      reach.(b) <- true;
      Array.iter dfs succ.(b)
    end
  in
  if nb > 0 then dfs Ir.Cir.entry;
  (* Forward may-assigned sets: [r] ∈ in(b) iff some path from entry to [b]
     assigns [r] (parameters count as assigned on entry). A read of a
     register outside the set is *provably* uninitialized: no execution
     reaching it has ever assigned the register, so it always yields the
     implicit 0. *)
  let inb = Array.make_matrix nb nr false in
  for p = 0 to min c.Ir.Cir.nparams nr - 1 do
    inb.(Ir.Cir.entry).(p) <- true
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      if reach.(b) then begin
        let out = Array.copy inb.(b) in
        Array.iter (fun i -> out.(Ir.Cir.def_of_rinstr i) <- true) c.Ir.Cir.blocks.(b).Ir.Cir.body;
        Array.iter
          (fun s ->
            for r = 0 to nr - 1 do
              if out.(r) && not inb.(s).(r) then begin
                inb.(s).(r) <- true;
                changed := true
              end
            done)
          succ.(b)
      end
    done
  done;
  let reported = Array.make nr false in
  let check_use b assigned r =
    if not assigned.(r) && not reported.(r) then begin
      reported.(r) <- true;
      diags :=
        Diagnostic.warning ~check:"lint-use-uninit" ~loc:(Diagnostic.Block b)
          "r%d is read in b%d but no path from the entry assigns it (always the implicit 0)"
          r b
        :: !diags
    end
  in
  for b = 0 to nb - 1 do
    if reach.(b) then begin
      let assigned = Array.copy inb.(b) in
      Array.iter
        (fun i ->
          Ir.Cir.iter_uses_rinstr (check_use b assigned) i;
          assigned.(Ir.Cir.def_of_rinstr i) <- true)
        c.Ir.Cir.blocks.(b).Ir.Cir.body;
      Ir.Cir.iter_uses_term (check_use b assigned) c.Ir.Cir.blocks.(b).Ir.Cir.term
    end
  done;
  List.rev !diags
