(* The mutable state of a GVN run: the paper's REACHABLE, TOUCHED, CHANGED,
   CLASS, LEADER, EXPRESSION, TABLE, RANK, PREDICATE, PARTIAL PREDICATE,
   CANONICAL and BACKWARD structures, implemented as §3 recommends —
   congruence classes as doubly linked lists threaded through per-value
   arrays, membership bit arrays for the sets, and touch counting so a pass
   can stop as soon as nothing remains touched. *)

type leader = Lundef | Lconst of int | Lvalue of int

type cls = {
  cid : int;
  mutable head : int; (* first member, -1 when empty *)
  mutable size : int;
  mutable leader : leader;
  mutable expr : Hexpr.t option; (* the class's defining expression *)
  mutable in_table : bool; (* whether [expr] is currently a TABLE key *)
  (* §3 optimization: inference walks are skipped when a class contains no
     value that could possibly match an edge predicate. *)
  mutable eq_operands : int; (* members that are operands of an =/≠ test *)
  mutable cmp_operands : int; (* members that are operands of any comparison *)
}

type t = {
  f : Ir.Func.t;
  config : Config.t;
  (* per-value *)
  is_eq_operand : bool array; (* operand of an equality/inequality test *)
  is_cmp_operand : bool array; (* operand of any comparison *)
  rank : int array;
  class_of : int array;
  next_member : int array;
  prev_member : int array;
  changed : bool array;
  (* classes *)
  classes : cls Util.Vec.t;
  arena : Hexpr.arena; (* the run's expression arena: one cell per structure *)
  (* TABLE lives in the arena cells themselves: each consed expression's
     [Util.Hashcons.slot] holds its class id (-1 = unbound). The arena is
     scoped to this run, so the slots are exclusively this table's. *)
  initial : int; (* class id of INITIAL *)
  (* reachability *)
  reach_block : bool array;
  reach_edge : bool array;
  (* worklist *)
  touched_instr : bool array;
  touched_block : bool array;
  mutable touched_count : int;
  mutable cursor : int; (* RPO index the sweep is at; the last index outside a sweep *)
  mutable pending : int;
      (* watermark: every block at RPO index >= [pending] counts as touched,
         block and instructions, and gets its flags when the sweep reaches
         it; always > [cursor], and the block count when nothing is
         pending *)
  (* predicates *)
  pred_edge : Hexpr.t option array;
  pred_block : Hexpr.t option array;
  partial_pred : Hexpr.t option array;
  partial_ops : Hexpr.t list array; (* OR operands accumulating at a join *)
  partial_count : int array; (* operands accumulated in a partial predicate *)
  pp_init : bool array; (* per-block: OR accumulator live this computation *)
  canonical : int array array; (* block -> canonical reachable incoming edges *)
  phi_scratch : Hexpr.t option array; (* per-edge φ-argument scratch (eval_phi) *)
  (* static structure *)
  rpo : Analysis.Rpo.t;
  backward : bool array; (* per edge: RPO back edge *)
  dom : Analysis.Dom.t;
  pdom : Analysis.Postdom.t;
  inc_dom : Analysis.Inc_dom.t; (* complete variant: reachable dominator tree *)
  def_use : int array array;
  switch_default : (int * int array) option array;
      (* per edge: [Some (scrutinee, cases)] when the edge is a switch
         default (it carries no predicate expression but excludes every
         case); only populated under [Config.pred_closure], so the
         dominating-fact walk pays one array load per predicate-less edge
         instead of a terminator fetch and match *)
  stats : Run_stats.t;
  mutable rules_subject : Hexpr.t Rules.Engine.subject option;
      (* lazily built view of this run's expressions for the rewrite-rule
         matcher (see Rewrite); cached because it closes over this state *)
}

let dummy_class =
  {
    cid = -1;
    head = -1;
    size = 0;
    leader = Lundef;
    expr = None;
    in_table = false;
    eq_operands = 0;
    cmp_operands = 0;
  }

let create (config : Config.t) (f : Ir.Func.t) =
  let g = Analysis.Graph.of_func f in
  let rpo = Analysis.Rpo.compute g in
  let dom = Analysis.Dom.compute ~rpo g in
  let pdom = Analysis.Postdom.compute g in
  let ni = Ir.Func.num_instrs f in
  let nb = Ir.Func.num_blocks f in
  let ne = Ir.Func.num_edges f in
  (* Ranks: constants 0 (implicit), values numbered in RPO definition order
     (§2.2). *)
  let rank = Array.make ni 0 in
  let next_rank = ref 0 in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          if Ir.Func.defines_value (Ir.Func.instr f i) then begin
            incr next_rank;
            rank.(i) <- !next_rank
          end)
        (Ir.Func.block f b).Ir.Func.instrs)
    rpo.Analysis.Rpo.order;
  (* Static inferenceability marking (§3): inference can only rewrite a
     value whose congruence class contains an operand of a comparison. *)
  let is_eq_operand = Array.make ni false in
  let is_cmp_operand = Array.make ni false in
  Array.iter
    (fun ins ->
      match (ins : Ir.Func.instr) with
      | Ir.Func.Cmp (op, a, b) ->
          is_cmp_operand.(a) <- true;
          is_cmp_operand.(b) <- true;
          (match op with
          | Ir.Types.Eq | Ir.Types.Ne ->
              is_eq_operand.(a) <- true;
              is_eq_operand.(b) <- true
          | Ir.Types.Lt | Ir.Types.Le | Ir.Types.Gt | Ir.Types.Ge -> ())
      | Ir.Func.Switch (a, _) ->
          (* Case edges carry scrutinee = constant equality predicates. *)
          is_cmp_operand.(a) <- true;
          is_eq_operand.(a) <- true
      | _ -> ())
    f.Ir.Func.instrs;
  let classes = Util.Vec.create ~dummy:dummy_class in
  (* INITIAL: all values, leader ⊥. *)
  let class_of = Array.make ni 0 in
  let next_member = Array.make ni (-1) in
  let prev_member = Array.make ni (-1) in
  let initial =
    {
      cid = 0;
      head = -1;
      size = 0;
      leader = Lundef;
      expr = None;
      in_table = false;
      eq_operands = 0;
      cmp_operands = 0;
    }
  in
  Util.Vec.push classes initial;
  for i = ni - 1 downto 0 do
    if Ir.Func.defines_value (Ir.Func.instr f i) then begin
      next_member.(i) <- initial.head;
      if initial.head >= 0 then prev_member.(initial.head) <- i;
      initial.head <- i;
      initial.size <- initial.size + 1;
      if is_eq_operand.(i) then initial.eq_operands <- initial.eq_operands + 1;
      if is_cmp_operand.(i) then initial.cmp_operands <- initial.cmp_operands + 1
    end
  done;
  {
    f;
    config;
    is_eq_operand;
    is_cmp_operand;
    rank;
    class_of;
    next_member;
    prev_member;
    changed = Array.make ni false;
    classes;
    arena = Hexpr.create ~size:256 ();
    initial = 0;
    reach_block = Array.make nb false;
    reach_edge = Array.make ne false;
    touched_instr = Array.make ni false;
    touched_block = Array.make nb false;
    touched_count = 0;
    cursor = Array.length rpo.Analysis.Rpo.order - 1;
    pending = Array.length rpo.Analysis.Rpo.order;
    pred_edge = Array.make ne None;
    pred_block = Array.make nb None;
    partial_pred = Array.make nb None;
    partial_ops = Array.make nb [];
    partial_count = Array.make nb 0;
    pp_init = Array.make nb false;
    canonical = Array.make nb [||];
    phi_scratch = Array.make ne None;
    rpo;
    backward = Analysis.Rpo.backward_edges rpo f;
    dom;
    pdom;
    inc_dom = Analysis.Inc_dom.create ~n:nb ~entry:Ir.Func.entry;
    def_use = Ir.Func.def_use f;
    switch_default =
      (let sd = Array.make ne None in
       if config.Config.pred_closure then
         Array.iteri
           (fun e (ed : Ir.Func.edge) ->
             match Ir.Func.instr f (Ir.Func.terminator_of_block f ed.Ir.Func.src) with
             | Ir.Func.Switch (c, cases) when ed.Ir.Func.src_ix >= Array.length cases ->
                 sd.(e) <- Some (c, cases)
             | _ -> ())
           f.Ir.Func.edges;
       sd);
    stats = Run_stats.create ();
    rules_subject = None;
  }

let cls t c = Util.Vec.get t.classes c

(* The class leader of a value, as the atomic expression symbolic evaluation
   substitutes for it. [None] while the value is still in INITIAL (⊥). *)
let leader_atom t v =
  match (cls t t.class_of.(v)).leader with
  | Lundef -> None
  | Lconst n -> Some (Hexpr.const t.arena n)
  | Lvalue l -> Some (Hexpr.value t.arena l)

(* ---------------- TOUCHED ---------------- *)

let touch_instr t i =
  if not t.touched_instr.(i) then begin
    t.touched_instr.(i) <- true;
    t.touched_count <- t.touched_count + 1;
    t.stats.Run_stats.instr_touches <- t.stats.Run_stats.instr_touches + 1
  end

let touch_block t b =
  if not t.touched_block.(b) then begin
    t.touched_block.(b) <- true;
    t.touched_count <- t.touched_count + 1;
    t.stats.Run_stats.block_touches <- t.stats.Run_stats.block_touches + 1
  end

let untouch_instr t i =
  if t.touched_instr.(i) then begin
    t.touched_instr.(i) <- false;
    t.touched_count <- t.touched_count - 1
  end

let untouch_block t b =
  if t.touched_block.(b) then begin
    t.touched_block.(b) <- false;
    t.touched_count <- t.touched_count - 1
  end

let touch_users t v = Array.iter (fun i -> touch_instr t i) t.def_use.(v)

let touch_block_instrs t b =
  Array.iter (fun i -> touch_instr t i) (Ir.Func.block t.f b).Ir.Func.instrs

let touch_block_phis t b =
  Array.iter (fun i -> touch_instr t i) (Ir.Func.phis_of_block t.f b)

(* Set the flags of the block at RPO index [n] and of its instructions. *)
let touch_rpo_slot t n =
  let b = t.rpo.Analysis.Rpo.order.(n) in
  touch_block t b;
  touch_block_instrs t b;
  t.stats.Run_stats.touch_slots <- t.stats.Run_stats.touch_slots + 1

(* Touch everything downstream of block [d] in RPO (practical variant's
   conservative approximation of dominated-by / postdominates, Figure 5).
   Blocks the sweep has yet to reach only lower the watermark; the span
   from [d] back to the cursor, which the sweep will not see again this
   pass, is touched now. *)
let touch_downstream_rpo t d =
  let dn = t.rpo.Analysis.Rpo.number.(d) in
  if dn > t.cursor then t.pending <- min t.pending dn
  else if dn >= 0 then begin
    for n = dn to t.cursor do
      touch_rpo_slot t n
    done;
    t.pending <- t.cursor + 1
  end

let visit_block t n =
  t.cursor <- n;
  if n >= t.pending then begin
    touch_rpo_slot t n;
    t.pending <- n + 1
  end;
  t.rpo.Analysis.Rpo.order.(n)

let end_sweep t =
  let nb = Array.length t.rpo.Analysis.Rpo.order in
  for n = t.pending to nb - 1 do
    touch_rpo_slot t n
  done;
  t.cursor <- nb - 1;
  t.pending <- nb

let has_work t = t.touched_count > 0 || t.pending < Array.length t.rpo.Analysis.Rpo.order

(* Complete variant (Figure 5): touch instructions of blocks dominated by
   [d] (in the reachable dominator tree) and blocks that postdominate [d]. *)
let touch_dominated_and_postdominating t d =
  for b = 0 to Ir.Func.num_blocks t.f - 1 do
    if Analysis.Inc_dom.dominates t.inc_dom d b then touch_block_instrs t b;
    if Analysis.Postdom.postdominates t.pdom b d then touch_block t b
  done

let propagate_change_in_edge t e =
  let d = (Ir.Func.edge t.f e).Ir.Func.dst in
  match t.config.Config.variant with
  | Config.Complete -> touch_dominated_and_postdominating t d
  | Config.Practical -> touch_downstream_rpo t d

(* ---------------- congruence classes ---------------- *)

let new_class t leader expr =
  let cid = Util.Vec.length t.classes in
  let c =
    {
      cid;
      head = -1;
      size = 0;
      leader;
      expr;
      in_table = false;
      eq_operands = 0;
      cmp_operands = 0;
    }
  in
  Util.Vec.push t.classes c;
  c

(* Unlink [v] from its current class (does not update CLASS). *)
let unlink t v =
  let c = cls t t.class_of.(v) in
  let nx = t.next_member.(v) and pv = t.prev_member.(v) in
  if pv >= 0 then t.next_member.(pv) <- nx else c.head <- nx;
  if nx >= 0 then t.prev_member.(nx) <- pv;
  t.next_member.(v) <- -1;
  t.prev_member.(v) <- -1;
  c.size <- c.size - 1;
  if t.is_eq_operand.(v) then c.eq_operands <- c.eq_operands - 1;
  if t.is_cmp_operand.(v) then c.cmp_operands <- c.cmp_operands - 1

let link t v c =
  t.next_member.(v) <- c.head;
  if c.head >= 0 then t.prev_member.(c.head) <- v;
  t.prev_member.(v) <- -1;
  c.head <- v;
  c.size <- c.size + 1;
  t.class_of.(v) <- c.cid;
  if t.is_eq_operand.(v) then c.eq_operands <- c.eq_operands + 1;
  if t.is_cmp_operand.(v) then c.cmp_operands <- c.cmp_operands + 1

let iter_members t c g =
  let rec go v =
    if v >= 0 then begin
      let nx = t.next_member.(v) in
      g v;
      go nx
    end
  in
  go c.head

(* ---------------- reachability ---------------- *)

let edge_reachable t e = t.reach_edge.(e)
let block_reachable t b = t.reach_block.(b)

let reachable_in_edges t b =
  Array.to_list (Ir.Func.block t.f b).Ir.Func.preds |> List.filter (fun e -> t.reach_edge.(e))

(* The single reachable incoming edge of [b], if there is exactly one.
   Allocation-free: this sits under the dominator walk of every inference
   query, so it must not build the intermediate edge list. *)
let sole_reachable_in_edge t b =
  let preds = (Ir.Func.block t.f b).Ir.Func.preds in
  let n = Array.length preds in
  let rec go i found =
    if i >= n then found
    else
      let e = Array.unsafe_get preds i in
      if t.reach_edge.(e) then if found >= 0 then -2 else go (i + 1) e
      else go (i + 1) found
  in
  let e = go 0 (-1) in
  if e >= 0 then Some e else None

let has_incoming_back_edge t b =
  Array.exists (fun e -> t.backward.(e)) (Ir.Func.block t.f b).Ir.Func.preds
