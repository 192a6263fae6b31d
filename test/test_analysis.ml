(* CFG analyses, each validated against a brute-force reference on random
   graphs: dominators, postdominators, dominance frontiers, the incremental
   dominator tree, RPO, loops and liveness. *)

(* Random digraph on n nodes with entry 0. *)
let random_graph rng n ~extra_edges =
  let succ = Array.make n [] in
  (* A random spanning structure keeps most nodes reachable. *)
  for v = 1 to n - 1 do
    let u = Util.Prng.int rng v in
    succ.(u) <- v :: succ.(u)
  done;
  for _ = 1 to extra_edges do
    let u = Util.Prng.int rng n and v = Util.Prng.int rng n in
    succ.(u) <- v :: succ.(u)
  done;
  Analysis.Graph.make ~entry:0 (Array.map Array.of_list succ)

(* Reference dominators by iterative set intersection over bitsets. *)
let brute_dominators (g : Analysis.Graph.t) =
  let n = g.Analysis.Graph.n in
  let full = Array.make n true in
  let dom = Array.init n (fun v -> if v = g.Analysis.Graph.entry then Array.make n false else Array.copy full) in
  dom.(g.Analysis.Graph.entry).(g.Analysis.Graph.entry) <- true;
  let reach = Analysis.Graph.reachable g in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if v <> g.Analysis.Graph.entry && reach.(v) then begin
        let inter = Array.make n true in
        let any = ref false in
        Array.iter
          (fun p ->
            if reach.(p) then begin
              any := true;
              for i = 0 to n - 1 do
                inter.(i) <- inter.(i) && dom.(p).(i)
              done
            end)
          g.Analysis.Graph.pred.(v);
        if not !any then Array.fill inter 0 n false;
        inter.(v) <- true;
        if inter <> dom.(v) then begin
          dom.(v) <- inter;
          changed := true
        end
      end
    done
  done;
  (dom, reach)

let prop_dominators =
  QCheck.Test.make ~name:"Dom.compute matches brute-force dominator sets" ~count:80
    QCheck.(pair (int_bound 100000) (int_range 1 14))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng (2 * n)) in
      let dom = Analysis.Dom.compute g in
      let ref_dom, reach = brute_dominators g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let expected = reach.(a) && reach.(b) && ref_dom.(b).(a) in
          if Analysis.Dom.dominates dom a b <> expected then ok := false
        done;
        if reach.(a) <> Analysis.Dom.reachable dom a then ok := false
      done;
      !ok)

let prop_nca =
  QCheck.Test.make ~name:"Dom.nca is the deepest common dominator" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng n) in
      let dom = Analysis.Dom.compute g in
      let reach = Analysis.Graph.reachable g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if reach.(a) && reach.(b) then begin
            let z = Analysis.Dom.nca dom a b in
            if not (Analysis.Dom.dominates dom z a && Analysis.Dom.dominates dom z b) then
              ok := false;
            (* No strictly deeper common dominator. *)
            for c = 0 to n - 1 do
              if
                reach.(c)
                && Analysis.Dom.dominates dom c a
                && Analysis.Dom.dominates dom c b
                && not (Analysis.Dom.dominates dom c z)
              then ok := false
            done
          end
        done
      done;
      !ok)

let prop_domfront =
  QCheck.Test.make ~name:"dominance frontiers match their definition" ~count:80
    QCheck.(pair (int_bound 100000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng (2 * n)) in
      let dom = Analysis.Dom.compute g in
      let df = Analysis.Domfront.compute g dom in
      let reach = Analysis.Graph.reachable g in
      (* DF(a) = { y | a dominates some pred of y, a does not strictly dominate y } *)
      let ok = ref true in
      for a = 0 to n - 1 do
        if reach.(a) then
          for y = 0 to n - 1 do
            if reach.(y) then begin
              let expected =
                Array.exists
                  (fun p -> reach.(p) && Analysis.Dom.dominates dom a p)
                  g.Analysis.Graph.pred.(y)
                && not (Analysis.Dom.strictly_dominates dom a y)
              in
              let got = Array.exists (fun x -> x = y) df.(a) in
              if expected <> got then ok := false
            end
          done
      done;
      !ok)

let prop_postdom =
  QCheck.Test.make ~name:"postdominators = dominators of the reversed graph" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng n) in
      let pd = Analysis.Postdom.compute g in
      (* Reference: a postdominates b iff every path from b to any exit
         passes a. Brute force via path search avoiding a. *)
      let exits = ref [] in
      for v = 0 to n - 1 do
        if Array.length g.Analysis.Graph.succ.(v) = 0 then exits := v :: !exits
      done;
      let reaches_exit_avoiding a b =
        (* can b reach an exit without touching a? *)
        let seen = Array.make n false in
        let rec dfs v =
          if v = a || seen.(v) then false
          else begin
            seen.(v) <- true;
            List.mem v !exits || Array.exists dfs g.Analysis.Graph.succ.(v)
          end
        in
        dfs b
      in
      let reaches_exit b =
        let seen = Array.make n false in
        let rec dfs v =
          if seen.(v) then false
          else begin
            seen.(v) <- true;
            List.mem v !exits || Array.exists dfs g.Analysis.Graph.succ.(v)
          end
        in
        dfs b
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if reaches_exit b && reaches_exit a then begin
            let expected = a = b || not (reaches_exit_avoiding a b) in
            if Analysis.Postdom.postdominates pd a b <> expected then ok := false
          end
        done
      done;
      !ok)

(* The incremental dominator tree must agree with from-scratch recomputation
   after every single insertion, for arbitrary insertion orders in which
   each edge's source is already reachable (the GVN setting). *)
let prop_inc_dom =
  QCheck.Test.make ~name:"Inc_dom agrees with recomputation after every insertion" ~count:120
    QCheck.(pair (int_bound 1000000) (int_range 2 14))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng (2 * n)) in
      let t = Analysis.Inc_dom.create ~n ~entry:0 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        Array.iter (fun v -> edges := (u, v) :: !edges) g.Analysis.Graph.succ.(u)
      done;
      let ok = ref true in
      let rec insert_all remaining =
        let ready, blocked =
          List.partition (fun (u, _) -> Analysis.Inc_dom.is_reachable t u) remaining
        in
        match ready with
        | [] -> ()
        | _ ->
            (* pick one ready edge at random *)
            let k = Util.Prng.int rng (List.length ready) in
            let u, v = List.nth ready k in
            ignore (Analysis.Inc_dom.insert_edge t ~src:u ~dst:v);
            (* compare against recomputation *)
            let reference = Analysis.Inc_dom.recompute_reference t in
            for b = 0 to n - 1 do
              let ri = reference.Analysis.Dom.idom.(b) in
              let ii = Analysis.Inc_dom.idom t b in
              let rr = Analysis.Dom.reachable reference b in
              let ir = Analysis.Inc_dom.is_reachable t b in
              if rr <> ir then ok := false;
              if rr && b <> 0 && ri <> ii then ok := false;
              if rr && reference.Analysis.Dom.depth.(b) <> Analysis.Inc_dom.depth t b then
                ok := false
            done;
            insert_all (blocked @ List.filteri (fun i _ -> i <> k) ready)
      in
      insert_all !edges;
      !ok)

let prop_rpo =
  QCheck.Test.make ~name:"RPO numbers respect forward edges on DAG part" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 15))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng n) in
      let rpo = Analysis.Rpo.compute g in
      let reach = Analysis.Graph.reachable g in
      (* Every reachable node appears exactly once; entry is first. *)
      let count = Array.make n 0 in
      Array.iter (fun b -> count.(b) <- count.(b) + 1) rpo.Analysis.Rpo.order;
      let ok = ref (rpo.Analysis.Rpo.order.(0) = 0) in
      for v = 0 to n - 1 do
        if reach.(v) then begin
          if count.(v) <> 1 then ok := false;
          if rpo.Analysis.Rpo.number.(v) < 0 then ok := false
        end
        else if rpo.Analysis.Rpo.number.(v) >= 0 then ok := false
      done;
      (* Back-edge classification is consistent with the numbering. *)
      for u = 0 to n - 1 do
        if reach.(u) then
          Array.iter
            (fun v ->
              let back = Analysis.Rpo.is_back_edge rpo ~src:u ~dst:v in
              let expect = rpo.Analysis.Rpo.number.(v) <= rpo.Analysis.Rpo.number.(u) in
              if back <> expect then ok := false)
            g.Analysis.Graph.succ.(u)
      done;
      !ok)

let test_loops_nesting () =
  let src =
    "routine f(n) { i = 0; while (i < n) { j = 0; while (j < n) { j = j + 1; } i = i + 1; } \
     return i; }"
  in
  let f = Ssa.Construct.of_cir (Ir.Lower.lower_routine (Ir.Parser.parse_one src)) in
  let fr = Analysis.Loops.forest (Analysis.Graph.of_func f) in
  Alcotest.(check int) "max nesting" 2 (Analysis.Loops.max_nesting fr);
  Alcotest.(check int) "two loop headers" 2 (Array.length fr.Analysis.Loops.loops)

let test_liveness_simple () =
  (* x is live across the branch; the constant only in the entry block. *)
  let src = "routine f(a) { x = a + 1; if (a > 0) { y = x + 1; return y; } return x; }" in
  let f = Ssa.Construct.of_cir (Ir.Lower.lower_routine (Ir.Parser.parse_one src)) in
  let live = Analysis.Liveness.compute f in
  (* Find the x value: the Add of param and const. *)
  let x = ref (-1) in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    match Ir.Func.instr f i with
    | Ir.Func.Binop (Ir.Types.Add, _, _) when !x < 0 -> x := i
    | _ -> ()
  done;
  Alcotest.(check bool) "x live out of entry" true (Analysis.Liveness.live_out_at live 0 !x);
  (* x is live into every successor of entry. *)
  let succs = Ir.Func.succ_blocks f in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "x live into successors" true (Analysis.Liveness.live_in_at live s !x))
    succs.(0)

(* Necessary conditions for liveness on arbitrary generated programs:
   cross-block operands are live-in at the using block, and φ arguments are
   live-out of the predecessor carrying them. *)
let prop_liveness_uses =
  QCheck.Test.make ~name:"liveness covers cross-block uses and phi args" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"lv" () in
      let live = Analysis.Liveness.compute f in
      let ok = ref true in
      for b = 0 to Ir.Func.num_blocks f - 1 do
        let blk = Ir.Func.block f b in
        Array.iter
          (fun i ->
            match Ir.Func.instr f i with
            | Ir.Func.Phi args ->
                Array.iteri
                  (fun ix v ->
                    let src = (Ir.Func.edge f blk.Ir.Func.preds.(ix)).Ir.Func.src in
                    if
                      Ir.Func.block_of_instr f v <> src
                      && not (Analysis.Liveness.live_in_at live src v)
                    then ok := false)
                  args
            | ins ->
                Ir.Func.iter_operands
                  (fun v ->
                    if Ir.Func.block_of_instr f v <> b && not (Analysis.Liveness.live_in_at live b v)
                    then ok := false)
                  ins)
          blk.Ir.Func.instrs
      done;
      !ok)

let prop_idom_is_dominator =
  QCheck.Test.make ~name:"idom chains enumerate exactly the dominators" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng n) in
      let dom = Analysis.Dom.compute g in
      let ok = ref true in
      for b = 0 to n - 1 do
        if Analysis.Dom.reachable dom b then begin
          (* walk the idom chain; every node on it must dominate b, and the
             count must equal the number of dominators of b *)
          let chain = ref [] in
          let v = ref b in
          while !v >= 0 do
            chain := !v :: !chain;
            v := dom.Analysis.Dom.idom.(!v)
          done;
          List.iter (fun a -> if not (Analysis.Dom.dominates dom a b) then ok := false) !chain;
          let count = ref 0 in
          for a = 0 to n - 1 do
            if Analysis.Dom.dominates dom a b then incr count
          done;
          if !count <> List.length !chain then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Loop-nesting forest                                                 *)

(* Well-formedness of the forest against its definition: headers dominate
   their bodies, back tails really carry dominated back edges, nesting
   counts containing loops, loop_of is a smallest containing loop, the
   irreducible list is exactly the non-dominated retreating edges, and the
   flat view agrees. *)
let prop_loop_forest =
  QCheck.Test.make ~name:"loop forest is well-formed and matches the flat view" ~count:80
    QCheck.(pair (int_bound 100000) (int_range 1 14))
    (fun (seed, n) ->
      let rng = Util.Prng.create seed in
      let g = random_graph rng n ~extra_edges:(Util.Prng.int rng (2 * n)) in
      let dom = Analysis.Dom.compute g in
      let rpo = Analysis.Rpo.compute g in
      let fr = Analysis.Loops.forest ~dom g in
      let loops = fr.Analysis.Loops.loops in
      let contains (l : Analysis.Loops.loop) b =
        Array.exists (fun x -> x = b) l.Analysis.Loops.body
      in
      let ok = ref true in
      Array.iteri
        (fun li (l : Analysis.Loops.loop) ->
          let h = l.Analysis.Loops.header in
          if not (contains l h) then ok := false;
          Array.iter
            (fun b -> if not (Analysis.Dom.dominates dom h b) then ok := false)
            l.Analysis.Loops.body;
          if Array.length l.Analysis.Loops.back_tails = 0 then ok := false;
          Array.iter
            (fun t ->
              if not (contains l t) then ok := false;
              if not (Array.exists (fun v -> v = h) g.Analysis.Graph.succ.(t)) then ok := false;
              if not (Analysis.Rpo.is_back_edge rpo ~src:t ~dst:h) then ok := false;
              if not (Analysis.Dom.dominates dom h t) then ok := false)
            l.Analysis.Loops.back_tails;
          (* Parent: the smallest other loop containing the header, or -1. *)
          (match l.Analysis.Loops.parent with
          | -1 ->
              if l.Analysis.Loops.depth <> 1 then ok := false;
              Array.iteri
                (fun lj l' -> if lj <> li && contains l' h then ok := false)
                loops
          | p ->
              if not (contains loops.(p) h) then ok := false;
              if l.Analysis.Loops.depth <> loops.(p).Analysis.Loops.depth + 1 then ok := false))
        loops;
      for b = 0 to n - 1 do
        let cnt =
          Array.fold_left (fun acc l -> if contains l b then acc + 1 else acc) 0 loops
        in
        if fr.Analysis.Loops.nesting.(b) <> cnt then ok := false;
        if Analysis.Loops.depth_at fr b <> cnt then ok := false;
        match fr.Analysis.Loops.loop_of.(b) with
        | -1 -> if cnt <> 0 then ok := false
        | li ->
            if not (contains loops.(li) b) then ok := false;
            Array.iter
              (fun l ->
                if
                  contains l b
                  && Array.length l.Analysis.Loops.body
                     < Array.length loops.(li).Analysis.Loops.body
                then ok := false)
              loops
      done;
      (* Every retreating edge is accounted for: as a back tail of the loop
         headed at its target when the target dominates, in [irreducible]
         otherwise — and [irreducible] holds nothing else. *)
      List.iter
        (fun (u, v) ->
          if not (Analysis.Rpo.is_back_edge rpo ~src:u ~dst:v) then ok := false;
          if Analysis.Dom.dominates dom v u then ok := false)
        fr.Analysis.Loops.irreducible;
      for u = 0 to n - 1 do
        if rpo.Analysis.Rpo.number.(u) >= 0 then
          Array.iter
            (fun v ->
              if Analysis.Rpo.is_back_edge rpo ~src:u ~dst:v then
                if Analysis.Dom.dominates dom v u then begin
                  if
                    not
                      (Array.exists
                         (fun (l : Analysis.Loops.loop) ->
                           l.Analysis.Loops.header = v
                           && Array.exists (fun t -> t = u) l.Analysis.Loops.back_tails)
                         loops)
                  then ok := false
                end
                else if not (List.mem (u, v) fr.Analysis.Loops.irreducible) then ok := false)
            g.Analysis.Graph.succ.(u)
      done;
      let headers =
        List.sort compare
          (Array.to_list (Array.map (fun (l : Analysis.Loops.loop) -> l.Analysis.Loops.header) loops))
      in
      let expect_widen =
        List.sort_uniq compare (headers @ List.map snd fr.Analysis.Loops.irreducible)
      in
      if Analysis.Loops.widen_blocks fr <> expect_widen then ok := false;
      !ok)

(* Structured source programs never produce irreducible control flow: on the
   full benchmark suite every forest is purely natural and properly nested. *)
let test_loop_forest_benchmarks () =
  List.iter
    (fun ((b : Workload.Suite.benchmark), funcs) ->
      List.iter
        (fun f ->
          let g = Analysis.Graph.of_func f in
          let dom = Analysis.Dom.compute g in
          let fr = Analysis.Loops.forest ~dom g in
          if fr.Analysis.Loops.irreducible <> [] then
            Alcotest.failf "%s: irreducible edges in structured code" b.Workload.Suite.name;
          let loops = fr.Analysis.Loops.loops in
          Array.iter
            (fun (l : Analysis.Loops.loop) ->
              Array.iter
                (fun blk ->
                  if not (Analysis.Dom.dominates dom l.Analysis.Loops.header blk) then
                    Alcotest.failf "%s: header does not dominate body" b.Workload.Suite.name)
                l.Analysis.Loops.body;
              match l.Analysis.Loops.parent with
              | -1 -> ()
              | p ->
                  (* A child loop's body nests entirely inside its parent's. *)
                  let parent = loops.(p) in
                  Array.iter
                    (fun blk ->
                      if not (Array.exists (fun x -> x = blk) parent.Analysis.Loops.body) then
                        Alcotest.failf "%s: child loop escapes its parent" b.Workload.Suite.name)
                    l.Analysis.Loops.body)
            loops;
          Array.iteri
            (fun blk li ->
              let depth = if li < 0 then 0 else loops.(li).Analysis.Loops.depth in
              if Analysis.Loops.depth_at fr blk <> depth then
                Alcotest.failf "%s: loop_of and nesting disagree" b.Workload.Suite.name)
            fr.Analysis.Loops.loop_of)
        funcs)
    (Workload.Suite.all ~scale:0.1 ())

(* The classic irreducible pair: two mutually-reaching blocks entered from
   the outside at both ends. No natural loop, one irreducible edge. *)
let test_irreducible () =
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2 |]; [| 2 |]; [| 1 |] |] in
  let fr = Analysis.Loops.forest g in
  Alcotest.(check int) "no natural loops" 0 (Array.length fr.Analysis.Loops.loops);
  Alcotest.(check (list (pair int int))) "one irreducible edge" [ (2, 1) ]
    fr.Analysis.Loops.irreducible;
  (* The widening set still covers the retreating target, so fixpoints over
     this graph terminate. *)
  Alcotest.(check (list int)) "widen at the retreating target" [ 1 ]
    (Analysis.Loops.widen_blocks fr)

(* ------------------------------------------------------------------ *)
(* Postdominator conventions (pinned; see postdom.mli)                 *)

let test_postdom_conventions () =
  (* No exit at all: a two-block cycle. Nothing postdominates anything,
     not even reflexively. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1 |]; [| 0 |] |] in
  let pd = Analysis.Postdom.compute g in
  Alcotest.(check bool) "no-exit: reaches_exit" false (Analysis.Postdom.reaches_exit pd 0);
  Alcotest.(check int) "no-exit: ipdom" (-1) (Analysis.Postdom.ipdom pd 0);
  Alcotest.(check bool) "no-exit: reflexive postdominates" false
    (Analysis.Postdom.postdominates pd 0 0);
  Alcotest.(check (option int)) "no-exit: nca" None (Analysis.Postdom.nca_opt pd 0 1);
  (* Two exits: their only common postdominator is the virtual exit, which
     is never exposed. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2 |]; [||]; [||] |] in
  let pd = Analysis.Postdom.compute g in
  Alcotest.(check int) "two exits: ipdom of the branch" (-1) (Analysis.Postdom.ipdom pd 0);
  Alcotest.(check bool) "two exits: arm does not postdominate" false
    (Analysis.Postdom.postdominates pd 1 0);
  Alcotest.(check (option int)) "two exits: nca across arms" None (Analysis.Postdom.nca_opt pd 1 2);
  Alcotest.(check (option int)) "two exits: nca is reflexive" (Some 1)
    (Analysis.Postdom.nca_opt pd 1 1);
  (* One exit: the diamond join postdominates everything. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2 |]; [| 3 |]; [| 3 |]; [||] |] in
  let pd = Analysis.Postdom.compute g in
  Alcotest.(check int) "diamond: ipdom of the branch is the join" 3
    (Analysis.Postdom.ipdom pd 0);
  Alcotest.(check (option int)) "diamond: nca of the arms is the join" (Some 3)
    (Analysis.Postdom.nca_opt pd 1 2);
  Alcotest.(check bool) "diamond: join postdominates entry" true
    (Analysis.Postdom.postdominates pd 3 0);
  (* Mixed divergence: one arm exits, the other spins forever. The diverging
     arm imposes no constraint on the exiting one. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2 |]; [||]; [| 2 |] |] in
  let pd = Analysis.Postdom.compute g in
  Alcotest.(check bool) "divergent arm cannot reach exit" false
    (Analysis.Postdom.reaches_exit pd 2);
  Alcotest.(check bool) "exit arm postdominates entry" true
    (Analysis.Postdom.postdominates pd 1 0);
  Alcotest.(check int) "ipdom of entry skips the divergence" 1 (Analysis.Postdom.ipdom pd 0);
  Alcotest.(check (option int)) "nca with a diverging block" None (Analysis.Postdom.nca_opt pd 1 2)

(* ------------------------------------------------------------------ *)
(* The shared Dom.nca / Postdom.nca contract (pinned; see dom.mli):
   each tree offers a raising form and a total form, and they agree —
   nca_opt is None exactly where nca raises Invalid_argument, and Some of
   the same block everywhere else. *)

let test_nca_conventions () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  (* Dominators: block 3 is unreachable; 1 and 2 join at 0. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2 |]; [||]; [||]; [| 0 |] |] in
  let dom = Analysis.Dom.compute g in
  Alcotest.(check int) "dom: defined nca" 0 (Analysis.Dom.nca dom 1 2);
  Alcotest.(check (option int)) "dom: nca_opt agrees" (Some 0) (Analysis.Dom.nca_opt dom 1 2);
  Alcotest.(check (option int)) "dom: reflexive nca_opt" (Some 1) (Analysis.Dom.nca_opt dom 1 1);
  Alcotest.(check bool) "dom: unreachable raises" true (raises (fun () -> Analysis.Dom.nca dom 1 3));
  Alcotest.(check (option int)) "dom: unreachable is None" None (Analysis.Dom.nca_opt dom 1 3);
  (* Postdominators: two exits (1, 2) plus a no-exit spinner (3). The
     raising form raises exactly where the total form is None. *)
  let g = Analysis.Graph.make ~entry:0 [| [| 1; 2; 3 |]; [||]; [||]; [| 3 |] |] in
  let pd = Analysis.Postdom.compute g in
  Alcotest.(check int) "pdom: defined nca (reflexive)" 1 (Analysis.Postdom.nca pd 1 1);
  Alcotest.(check (option int)) "pdom: nca_opt agrees" (Some 1) (Analysis.Postdom.nca_opt pd 1 1);
  Alcotest.(check bool) "pdom: virtual-exit-only raises" true
    (raises (fun () -> Analysis.Postdom.nca pd 1 2));
  Alcotest.(check (option int)) "pdom: virtual-exit-only is None" None
    (Analysis.Postdom.nca_opt pd 1 2);
  Alcotest.(check bool) "pdom: no-exit block raises" true
    (raises (fun () -> Analysis.Postdom.nca pd 1 3));
  Alcotest.(check (option int)) "pdom: no-exit block is None" None
    (Analysis.Postdom.nca_opt pd 1 3)

(* ------------------------------------------------------------------ *)
(* Liveness vs a definitional reference                                *)

(* Naive per-block boolean-matrix liveness, straight from the definition:
   live_out = carried φ args ∪ successors' live_in;
   live_in  = upward-exposed uses ∪ (live_out \ defs). *)
let naive_liveness f =
  let ni = Ir.Func.num_instrs f and nb = Ir.Func.num_blocks f in
  let uses = Array.make_matrix nb ni false in
  let defs = Array.make_matrix nb ni false in
  let phi_out = Array.make_matrix nb ni false in
  for b = 0 to nb - 1 do
    let blk = Ir.Func.block f b in
    Array.iter
      (fun i ->
        let ins = Ir.Func.instr f i in
        (match ins with
        | Ir.Func.Phi args ->
            Array.iteri
              (fun ix _ ->
                let src = (Ir.Func.edge f blk.Ir.Func.preds.(ix)).Ir.Func.src in
                phi_out.(src).(args.(ix)) <- true)
              blk.Ir.Func.preds
        | _ -> Ir.Func.iter_operands (fun v -> if not defs.(b).(v) then uses.(b).(v) <- true) ins);
        if Ir.Func.defines_value ins then defs.(b).(i) <- true)
      blk.Ir.Func.instrs
  done;
  let live_in = Array.make_matrix nb ni false in
  let live_out = Array.make_matrix nb ni false in
  let succ = Ir.Func.succ_blocks f in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      for v = 0 to ni - 1 do
        let o = phi_out.(b).(v) || Array.exists (fun s -> live_in.(s).(v)) succ.(b) in
        if o && not live_out.(b).(v) then begin
          live_out.(b).(v) <- true;
          changed := true
        end;
        let i = uses.(b).(v) || (live_out.(b).(v) && not defs.(b).(v)) in
        if i && not live_in.(b).(v) then begin
          live_in.(b).(v) <- true;
          changed := true
        end
      done
    done
  done;
  (live_in, live_out)

let prop_liveness_naive =
  QCheck.Test.make ~name:"bitset liveness equals the naive fixpoint exactly" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let f = Workload.Generator.func ~seed ~name:"lvn" () in
      let live = Analysis.Liveness.compute f in
      let ref_in, ref_out = naive_liveness f in
      let ok = ref true in
      for b = 0 to Ir.Func.num_blocks f - 1 do
        for v = 0 to Ir.Func.num_instrs f - 1 do
          if Analysis.Liveness.live_in_at live b v <> ref_in.(b).(v) then ok := false;
          if Analysis.Liveness.live_out_at live b v <> ref_out.(b).(v) then ok := false
        done
      done;
      !ok)

(* The case the old seeding missed: a φ argument defined in the loop latch
   itself is live out of the latch (the back edge carries it) but not live
   into it. *)
let test_liveness_phi_latch () =
  let src = "routine f(n) { i = 0; while (i < n) { i = i + 1; } return i; }" in
  let f = Ssa.Construct.of_cir (Ir.Lower.lower_routine (Ir.Parser.parse_one src)) in
  let live = Analysis.Liveness.compute f in
  let found = ref false in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    let blk = Ir.Func.block f b in
    Array.iter
      (fun i ->
        match Ir.Func.instr f i with
        | Ir.Func.Phi args ->
            Array.iteri
              (fun ix _ ->
                let v = args.(ix) in
                let src = (Ir.Func.edge f blk.Ir.Func.preds.(ix)).Ir.Func.src in
                if Ir.Func.block_of_instr f v = src then begin
                  found := true;
                  Alcotest.(check bool) "latch-defined arg live out of latch" true
                    (Analysis.Liveness.live_out_at live src v);
                  Alcotest.(check bool) "latch-defined arg not live into latch" false
                    (Analysis.Liveness.live_in_at live src v)
                end)
              args
        | _ -> ())
      blk.Ir.Func.instrs
  done;
  Alcotest.(check bool) "found a latch-defined phi argument" true !found

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dominators;
    QCheck_alcotest.to_alcotest prop_idom_is_dominator;
    QCheck_alcotest.to_alcotest prop_liveness_uses;
    QCheck_alcotest.to_alcotest prop_nca;
    QCheck_alcotest.to_alcotest prop_domfront;
    QCheck_alcotest.to_alcotest prop_postdom;
    QCheck_alcotest.to_alcotest prop_inc_dom;
    QCheck_alcotest.to_alcotest prop_rpo;
    QCheck_alcotest.to_alcotest prop_loop_forest;
    QCheck_alcotest.to_alcotest prop_liveness_naive;
    Alcotest.test_case "loop nesting depth" `Quick test_loops_nesting;
    Alcotest.test_case "loop forest on the benchmark suite" `Quick test_loop_forest_benchmarks;
    Alcotest.test_case "irreducible retreating edges" `Quick test_irreducible;
    Alcotest.test_case "postdominator conventions" `Quick test_postdom_conventions;
    Alcotest.test_case "nca conventions" `Quick test_nca_conventions;
    Alcotest.test_case "liveness on a diamond" `Quick test_liveness_simple;
    Alcotest.test_case "liveness of a latch-defined phi arg" `Quick test_liveness_phi_latch;
  ]
