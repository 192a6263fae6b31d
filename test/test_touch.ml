(* Touch propagation: the watermark in [Pgvn.State] against the eager
   oracle, the work it does, and whole GVN runs pinned to recorded
   digests. *)

(* ------------------------------------------------------------------ *)
(* The watermark against the eager oracle.                             *)

type op =
  | Edge of int  (** propagate a change in edge k (mod edges) *)
  | Downstream of int  (** touch downstream of block k (mod blocks) *)
  | Instr of int  (** touch instruction k *)
  | Users of int  (** touch the users of value k *)
  | Visit  (** the sweep moves to the next RPO index, or ends after the last *)
  | Process of int  (** untouch instruction k of the block the sweep is at *)
  | End_sweep

let pp_op = function
  | Edge k -> Printf.sprintf "edge %d" k
  | Downstream k -> Printf.sprintf "downstream %d" k
  | Instr k -> Printf.sprintf "instr %d" k
  | Users k -> Printf.sprintf "users %d" k
  | Visit -> "visit"
  | Process k -> Printf.sprintf "process %d" k
  | End_sweep -> "end-sweep"

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           (3, map (fun k -> Edge k) nat);
           (1, map (fun k -> Downstream k) nat);
           (2, map (fun k -> Instr k) nat);
           (1, map (fun k -> Users k) nat);
           (10, return Visit);
           (3, map (fun k -> Process k) nat);
           (1, return End_sweep);
         ]))

(* The eager state the watermark stands for: below [pending] the flags
   are the State's own; at or above it every flag is set, and each one the
   State has not set yet is a touch the oracle has already counted. *)
let abstraction_agrees (st : Pgvn.State.t) (o : Touch_oracle.t) =
  let rank = (Pgvn.State.rpo st).Analysis.Rpo.number in
  let deferred_blocks = ref 0 and deferred_instrs = ref 0 in
  let flag ~pending deferred mine eager =
    if pending then begin
      if not mine then incr deferred;
      eager
    end
    else mine = eager
  in
  let ok = ref true in
  for b = 0 to Ir.Func.num_blocks st.Pgvn.State.f - 1 do
    let pending = rank.(b) >= st.Pgvn.State.pending in
    ok :=
      flag ~pending deferred_blocks st.Pgvn.State.touched_block.(b) o.Touch_oracle.touched_block.(b)
      && !ok;
    Array.iter
      (fun i ->
        ok :=
          flag ~pending deferred_instrs st.Pgvn.State.touched_instr.(i)
            o.Touch_oracle.touched_instr.(i)
          && !ok)
      (Ir.Func.block st.Pgvn.State.f b).Ir.Func.instrs
  done;
  let s = st.Pgvn.State.stats in
  !ok
  && s.Pgvn.Run_stats.instr_touches + !deferred_instrs = o.Touch_oracle.instr_touches
  && s.Pgvn.Run_stats.block_touches + !deferred_blocks = o.Touch_oracle.block_touches
  && st.Pgvn.State.touched_count + !deferred_instrs + !deferred_blocks
     = o.Touch_oracle.touched_count
  && Pgvn.State.has_work st = Touch_oracle.has_work o

(* Feed one operation sequence to both; after every step the eager state
   the watermark stands for must be the oracle's, and on every visit the
   block's own flags (what the sweep reads) must be the oracle's. *)
let watermark_matches_oracle (seed, ops) =
  let f = Workload.Generator.func ~seed ~name:"p" () in
  let st = Pgvn.State.create Pgvn.Config.full f in
  let o = Touch_oracle.create f (Pgvn.State.rpo st) in
  let order = (Pgvn.State.rpo st).Analysis.Rpo.order in
  let nb = Array.length order and ni = Ir.Func.num_instrs f in
  let ne = Ir.Func.num_edges f in
  let at = ref (-1) in
  let end_sweep () =
    Pgvn.State.end_sweep st;
    at := -1
  in
  let step op =
    (match op with
    | Edge k when ne > 0 ->
        Pgvn.State.propagate_change_in_edge st (k mod ne);
        Touch_oracle.propagate_change_in_edge o (k mod ne)
    | Edge _ -> ()
    | Downstream k ->
        Pgvn.State.touch_downstream_rpo st (k mod Ir.Func.num_blocks f);
        Touch_oracle.touch_downstream_rpo o (k mod Ir.Func.num_blocks f)
    | Instr k ->
        Pgvn.State.touch_instr st (k mod ni);
        Touch_oracle.touch_instr o (k mod ni)
    | Users k ->
        Pgvn.State.touch_users st (k mod ni);
        Touch_oracle.touch_users o (k mod ni)
    | Visit when !at + 1 >= nb -> end_sweep ()
    | Visit ->
        incr at;
        let b = Pgvn.State.visit_block st !at in
        if b <> order.(!at) then QCheck.Test.fail_reportf "visit %d returned block %d" !at b;
        let agree = ref (st.Pgvn.State.touched_block.(b) = o.Touch_oracle.touched_block.(b)) in
        Array.iter
          (fun i ->
            if st.Pgvn.State.touched_instr.(i) <> o.Touch_oracle.touched_instr.(i) then
              agree := false)
          (Ir.Func.block f b).Ir.Func.instrs;
        if not !agree then QCheck.Test.fail_reportf "flags of block %d differ on arrival" b;
        (* The sweep clears the block's own flag as it enters it. *)
        Pgvn.State.untouch_block st b;
        Touch_oracle.untouch_block o b
    | Process k when !at >= 0 ->
        let instrs = (Ir.Func.block f order.(!at)).Ir.Func.instrs in
        let i = instrs.(k mod Array.length instrs) in
        Pgvn.State.untouch_instr st i;
        Touch_oracle.untouch_instr o i
    | Process _ -> ()
    | End_sweep -> end_sweep ());
    if not (abstraction_agrees st o) then
      QCheck.Test.fail_reportf "state differs from the oracle after %s (cursor %d)" (pp_op op) !at
  in
  List.iter step ops;
  end_sweep ();
  abstraction_agrees st o
  && st.Pgvn.State.touched_instr = o.Touch_oracle.touched_instr
  && st.Pgvn.State.touched_block = o.Touch_oracle.touched_block

let prop_watermark_matches_oracle =
  QCheck.Test.make ~name:"the touch watermark matches the eager oracle" ~count:60
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map pp_op ops)))
       QCheck.Gen.(pair (int_bound 100000) gen_ops))
    watermark_matches_oracle

(* ------------------------------------------------------------------ *)
(* Work.                                                               *)

(* Touch propagation visits each RPO slot at most once per pass on
   routines without back edges: the eager walk visited every downstream
   slot per edge, a count that grew with the square of the nest depth. *)
let test_touch_slots_bounded () =
  let routines =
    List.map Workload.Pathological.guard_nest_func [ 250; 500; 1000; 2000 ]
    @ List.map Workload.Pathological.ladder_func [ 16; 64; 128; 256 ]
  in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun f ->
          let s = (Pgvn.Driver.run config f).Pgvn.State.stats in
          let bound = s.Pgvn.Run_stats.passes * Ir.Func.num_blocks f in
          if s.Pgvn.Run_stats.touch_slots > bound then
            Alcotest.failf "%s on %s: %d touch slots > passes × blocks = %d" name
              f.Ir.Func.name s.Pgvn.Run_stats.touch_slots bound)
        routines)
    [ ("full", Pgvn.Config.full); ("pessimistic", Pgvn.Config.pessimistic);
      ("basic", Pgvn.Config.basic) ]

(* ------------------------------------------------------------------ *)
(* Pinned whole runs.                                                  *)

(* The routines the digests cover: generator routines at two budgets,
   Figure 9 ladders and guard nests. *)
let pinned_routines =
  lazy
    (let gen budget seed =
       let profile =
         { Workload.Generator.default_profile with stmt_budget = budget; max_depth = 8 }
       in
       Workload.Generator.func ~profile ~seed ~name:"p" ()
     in
     List.concat_map (fun budget -> List.init 6 (fun k -> gen budget (100 + k))) [ 100; 400 ]
     @ List.map Workload.Pathological.ladder_func [ 8; 16; 32; 64 ]
     @ List.map Workload.Pathological.guard_nest_func [ 10; 100; 250 ])

(* A run as two texts. The decision text holds everything a run decides:
   every [Run_stats] counter except the inference visits, the final class
   partition (each value's smallest class-mate, or "-" in INITIAL, plus its
   class leader) and the reachability arrays. The work text holds the value
   and predicate inference visits, which a faster walk may change without
   changing any decision. *)
let run_fingerprints config f =
  let b = Buffer.create 4096 and w = Buffer.create 64 in
  (match Pgvn.Driver.run config f with
  | exception Pgvn.Driver.Diverged _ ->
      Buffer.add_string b "diverged";
      Buffer.add_string w "diverged"
  | st ->
      let s = st.Pgvn.State.stats in
      let count p = List.length (List.filter p s.claims) in
      Printf.bprintf b "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n" s.Pgvn.Run_stats.passes
        s.instrs_processed s.instr_touches s.block_touches s.touch_slots
        s.phi_predication_visits s.class_moves s.table_probes s.table_hits
        s.pred_closure_queries s.pred_decided_true s.pred_decided_false s.pred_contradictions
        (count (fun c -> c.Pgvn.Run_stats.by <> Pgvn.Run_stats.Closure))
        (count (fun c -> c.Pgvn.Run_stats.by = Pgvn.Run_stats.Closure));
      Printf.bprintf w "%d %d" s.value_inference_visits s.predicate_inference_visits;
      let ni = Ir.Func.num_instrs f in
      let least = Hashtbl.create 64 in
      for v = ni - 1 downto 0 do
        Hashtbl.replace least st.Pgvn.State.class_of.(v) v
      done;
      for v = 0 to ni - 1 do
        let c = st.Pgvn.State.class_of.(v) in
        if c = st.Pgvn.State.initial then Buffer.add_string b "- "
        else
          match (Pgvn.State.cls st c).Pgvn.State.leader with
          | Pgvn.State.Lundef -> Printf.bprintf b "%d/u " (Hashtbl.find least c)
          | Pgvn.State.Lconst n -> Printf.bprintf b "%d/c%d " (Hashtbl.find least c) n
          | Pgvn.State.Lvalue l -> Printf.bprintf b "%d/v%d " (Hashtbl.find least c) l
      done;
      let bits a = Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) a in
      Buffer.add_char b '\n';
      bits st.Pgvn.State.reach_block;
      Buffer.add_char b '\n';
      bits st.Pgvn.State.reach_edge);
  Buffer.add_char b '\n';
  Buffer.add_char w '\n';
  (Buffer.contents b, Buffer.contents w)

(* Every CLI preset, plus [full] under the complete variant.
   [Config.full_extended] is left out: its φ-distribution may not
   converge. *)
let pinned_configs =
  List.map
    (fun name -> (name, Result.get_ok (Cli.Cli_options.preset_of_string name)))
    Cli.Cli_options.preset_names
  @ [ ("full --complete", { Pgvn.Config.full with variant = Pgvn.Config.Complete }) ]

(* Per preset, the digests of the decision and work texts over every
   pinned routine, computed once and shared by the two tests. *)
let pinned_digests =
  lazy
    (List.map
       (fun (name, config) ->
         let texts = List.map (run_fingerprints config) (Lazy.force pinned_routines) in
         let digest part = Digest.to_hex (Digest.string (String.concat "" (List.map part texts))) in
         (name, (digest fst, digest snd)))
       pinned_configs)

(* Recorded before the inference walks learned to skip queries no edge
   fact can answer; a driver change that moves any decision moves its
   digest. [full], [dense] and [full --complete] were re-recorded when a
   re-evaluation stopped keeping duplicate inference claims: only their
   claim counts moved, each to its number of distinct claims. *)
let test_runs_pinned () =
  let expected =
    [
      ("full", "333c336887578058d2f434898d0f7c3c");
      ("balanced", "fe9ab9a2fd6d8da876b27144fd230375");
      ("pessimistic", "6a98cef31a96091f233b73cbbdc03efc");
      ("basic", "a64ca7fca0650daccd7f8773a2f2a585");
      ("dense", "048cd476ad1c502bf4c8200f0ae0cedf");
      ("click", "a64ca7fca0650daccd7f8773a2f2a585");
      ("sccp", "16f460b3d3cab92cf1559ba6a9e2548e");
      ("awz", "f63f2ea3eaa4e68d13c323d49be018d6");
      ("full --complete", "31881bee540a0ab00101c66b0a71da5a");
    ]
  in
  let got = List.map (fun (name, (d, _)) -> (name, d)) (Lazy.force pinned_digests) in
  Alcotest.(check (list (pair string string))) "decision digest per preset" expected got

(* The walks' work, pinned apart from the decisions: a change that makes
   inference cheaper re-records these alone. Recorded once the walks
   skipped queries no edge fact can answer and asked both polarities of a
   branch in one walk. *)
let test_work_pinned () =
  let expected =
    [
      ("full", "4d1471f5adb651540a1f32d5531a7452");
      ("balanced", "b28e36b978d1cef7f4b47967891b0f02");
      ("pessimistic", "fb47c643c75265306f8cb27ca2b4ec0b");
      ("basic", "e47a331a504853cacc103b1ce8e784ec");
      ("dense", "9776e1af8f7f0e39887c5c046eb6a7c6");
      ("click", "e47a331a504853cacc103b1ce8e784ec");
      ("sccp", "e47a331a504853cacc103b1ce8e784ec");
      ("awz", "e47a331a504853cacc103b1ce8e784ec");
      ("full --complete", "fab6a9c7ad9dd9725e2aee23ba8f3cfd");
    ]
  in
  let got = List.map (fun (name, (_, w)) -> (name, w)) (Lazy.force pinned_digests) in
  Alcotest.(check (list (pair string string))) "work digest per preset" expected got

let suite =
  [
    QCheck_alcotest.to_alcotest prop_watermark_matches_oracle;
    Alcotest.test_case "whole runs are pinned" `Quick test_runs_pinned;
    Alcotest.test_case "touch slots stay within passes × blocks" `Quick
      test_touch_slots_bounded;
    Alcotest.test_case "whole-run work is pinned" `Quick test_work_pinned;
  ]
