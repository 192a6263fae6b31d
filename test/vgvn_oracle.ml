(* The equivalence oracle as it ran before its data became arrays: the
   same optimistic rounds of hash-based numbering and reachability
   shrinking, over a fresh [Hashtbl] of constants and a fresh key table per
   round, polymorphic key hashing and equality, and a rule-table consult
   for every binop. It shares no numbering code with [Validate.Oracle], so
   the tests can hold the oracle's partition, constants, reachability and
   round count to it. *)

type t = {
  f : Ir.Func.t;
  vn : int array;  (* instr -> value number; -1 for unreachable/non-values *)
  consts : (int, int) Hashtbl.t;  (* value number -> known constant *)
  block_reach : bool array;
  edge_reach : bool array;
  rounds : int;
}

(* Hash keys for value expressions over current value numbers. [Kself]
   pins a value into its own class (opaque to the oracle this round). *)
type key =
  | Kconst of int
  | Kparam of int
  | Kself of int
  | Kunop of Ir.Types.unop * int
  | Kbinop of Ir.Types.binop * int * int
  | Kcmp of Ir.Types.cmp * int * int
  | Kcall of int * int list
  | Kphi of int * (int * int) list  (* block, (pred index, number) when live *)

(* Operand view for the rule-table consult: a value number plus its known
   constant. [onum = -1] marks a constant the matcher built itself. *)
type orep = { onum : int; ocst : int option }

let rules_subject : orep Rules.Engine.subject =
  {
    Rules.Engine.view =
      (fun r ->
        match r.ocst with Some c -> Rules.Engine.Sconst c | None -> Rules.Engine.Satom);
    equal =
      (fun r s ->
        match (r.ocst, s.ocst) with
        | Some a, Some b -> a = b
        | _ -> r.onum >= 0 && r.onum = s.onum);
    bconst = (fun c -> { onum = -1; ocst = Some c });
    bunop = (fun _ _ -> None);
    bbinop = (fun _ _ _ -> None);
    reduce = (fun _ -> None);
    fired = ignore;
  }

(* The value a round assigns an instruction: an existing class, a fresh
   expression key, or a constant. *)
type sval = V of int | K of key | C of int

(* Keys are interned in one arena shared by every numbering round (they
   mention only stable instruction ids), so a key recurring across rounds
   probes the round table by precomputed tag. *)
module HK = Util.Hashcons.Make (struct
  type t = key

  let equal (a : key) (b : key) = a = b
  let hash (k : key) = Hashtbl.hash k
end)

(* Reverse post-order over all statically present edges; unreachable blocks
   are simply skipped during numbering. *)
let rpo_order f =
  let seen = Array.make (Ir.Func.num_blocks f) false in
  let post = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      Array.iter
        (fun e -> dfs (Ir.Func.edge f e).Ir.Func.dst)
        (Ir.Func.block f b).Ir.Func.succs;
      post := b :: !post
    end
  in
  dfs Ir.Func.entry;
  Array.of_list !post

(* Reachability from the entry under the given numbering: a branch or
   switch whose scrutinee has a known constant takes only the decided
   edge. *)
let compute_reach f (vn : int array) consts =
  let block_reach = Array.make (Ir.Func.num_blocks f) false in
  let edge_reach = Array.make (Ir.Func.num_edges f) false in
  let const_of v = if vn.(v) < 0 then None else Hashtbl.find_opt consts vn.(v) in
  let rec visit b =
    if not block_reach.(b) then begin
      block_reach.(b) <- true;
      let blk = Ir.Func.block f b in
      let take e =
        edge_reach.(e) <- true;
        visit (Ir.Func.edge f e).Ir.Func.dst
      in
      match Ir.Func.instr f (Ir.Func.terminator_of_block f b) with
      | Ir.Func.Jump -> take blk.Ir.Func.succs.(0)
      | Ir.Func.Return _ -> ()
      | Ir.Func.Branch c -> (
          match const_of c with
          | Some k -> take blk.Ir.Func.succs.(if k <> 0 then 0 else 1)
          | None ->
              take blk.Ir.Func.succs.(0);
              take blk.Ir.Func.succs.(1))
      | Ir.Func.Switch (c, cases) -> (
          match const_of c with
          | Some k ->
              let ix = ref (Array.length cases) (* default *) in
              Array.iteri (fun j case -> if case = k then ix := j) cases;
              take blk.Ir.Func.succs.(!ix)
          | None -> Array.iter take blk.Ir.Func.succs)
      | _ -> invalid_arg "Oracle: missing terminator"
    end
  in
  visit Ir.Func.entry;
  (block_reach, edge_reach)

(* One numbering round. [prev]/[prev_consts] give the previous round's
   numbering, read for values not yet numbered this round (φ inputs along
   back edges); -1 is the optimistic ⊥, skipped at φs. *)
let number f arena order (block_reach : bool array) (edge_reach : bool array)
    (prev : int array) prev_consts =
  let ni = Ir.Func.num_instrs f in
  let vn = Array.make ni (-1) in
  let table : int HK.Tbl.t = HK.Tbl.create (2 * ni) in
  let consts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let num v = if vn.(v) >= 0 then vn.(v) else prev.(v) in
  let cst v =
    if vn.(v) >= 0 then Hashtbl.find_opt consts vn.(v)
    else if prev.(v) >= 0 then Hashtbl.find_opt prev_consts prev.(v)
    else None
  in
  let intern i ?const key =
    let ck = HK.hashcons arena key in
    match HK.Tbl.find_opt table ck with
    | Some r -> r
    | None ->
        HK.Tbl.add table ck i;
        (match const with Some c -> Hashtbl.replace consts i c | None -> ());
        i
  in
  let binop_val i op a b =
    let ra = num a and rb = num b in
    if ra < 0 || rb < 0 then K (Kself i)
    else
      (* Fold constants and apply algebraic identities by consulting the
         shared rule table through a shallow adapter: an operand is its
         value number plus its known constant, and any rule whose RHS
         would need a fresh compound expression is declined (the oracle
         has no expression language — only numbers and constants). *)
      match
        Rules.Engine.rewrite_binop Rules.Engine.shared rules_subject op
          { onum = ra; ocst = cst a }
          { onum = rb; ocst = cst b }
      with
      | Some { ocst = Some c; _ } -> C c
      | Some { onum = r; _ } -> V r
      | None ->
          let ra, rb =
            if Ir.Types.binop_commutative op && rb < ra then (rb, ra) else (ra, rb)
          in
          K (Kbinop (op, ra, rb))
  in
  let cmp_val i op a b =
    let ra = num a and rb = num b in
    if ra < 0 || rb < 0 then K (Kself i)
    else
      match (cst a, cst b) with
      | Some x, Some y -> C (Ir.Types.eval_cmp op x y)
      | _ ->
          if ra = rb then
            C (match op with Ir.Types.Eq | Le | Ge -> 1 | Ne | Lt | Gt -> 0)
          else
            (* Normalize the mirror image: b ≷ a numbers like a ≶ b. *)
            let op, ra, rb =
              if rb < ra then (Ir.Types.swap_cmp op, rb, ra) else (op, ra, rb)
            in
            K (Kcmp (op, ra, rb))
  in
  let phi_val i b args preds =
    let xs = ref [] in
    Array.iteri
      (fun ix e ->
        if edge_reach.(e) then
          let r = num args.(ix) in
          if r >= 0 then xs := (ix, r) :: !xs)
      preds;
    match List.rev !xs with
    | [] -> K (Kself i) (* all inputs still ⊥ *)
    | (_, r0) :: rest as live ->
        if List.for_all (fun (_, r) -> r = r0) rest then V r0 (* a copy *)
        else K (Kphi (b, live))
  in
  let eval i b preds = function
    | Ir.Func.Const c -> C c
    | Ir.Func.Param k -> K (Kparam k)
    | Ir.Func.Unop (op, a) -> (
        if num a < 0 then K (Kself i)
        else
          match cst a with
          | Some x -> C (Ir.Types.eval_unop op x)
          | None -> K (Kunop (op, num a)))
    | Ir.Func.Binop (op, a, b') -> binop_val i op a b'
    | Ir.Func.Cmp (op, a, b') -> cmp_val i op a b'
    | Ir.Func.Opaque (tag, args) ->
        let rs = Array.map num args in
        if Array.exists (fun r -> r < 0) rs then K (Kself i)
        else K (Kcall (tag, Array.to_list rs))
    | Ir.Func.Phi args -> phi_val i b args preds
    | _ -> assert false
  in
  Array.iter
    (fun b ->
      if block_reach.(b) then
        let blk = Ir.Func.block f b in
        Array.iter
          (fun i ->
            let ins = Ir.Func.instr f i in
            if Ir.Func.defines_value ins then
              match eval i b blk.Ir.Func.preds ins with
              | C c -> vn.(i) <- intern i ~const:c (Kconst c)
              | V r -> vn.(i) <- r
              | K key -> vn.(i) <- intern i key)
          blk.Ir.Func.instrs)
    order;
  (vn, consts)

let consts_equal a b =
  let dump h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
  dump a = dump b

let run (f : Ir.Func.t) : t =
  let ni = Ir.Func.num_instrs f in
  let order = rpo_order f in
  let arena = HK.create ~size:(2 * ni) () in
  let max_rounds = ni + 8 in
  let rec go prev prev_consts (block_reach, edge_reach) rounds =
    if rounds > max_rounds then failwith "Validate.Oracle: numbering did not converge";
    let vn, consts = number f arena order block_reach edge_reach prev prev_consts in
    let block_reach', edge_reach' = compute_reach f vn consts in
    if
      vn = prev && consts_equal consts prev_consts
      && block_reach' = block_reach && edge_reach' = edge_reach
    then { f; vn; consts; block_reach; edge_reach; rounds }
    else go vn consts (block_reach', edge_reach') (rounds + 1)
  in
  let bottom = Array.make ni (-1) in
  go bottom (Hashtbl.create 1) (compute_reach f bottom (Hashtbl.create 1)) 1

let congruent t a b = t.vn.(a) >= 0 && t.vn.(a) = t.vn.(b)
let constant t v = if t.vn.(v) < 0 then None else Hashtbl.find_opt t.consts t.vn.(v)
let block_reachable t b = t.block_reach.(b)
let edge_reachable t e = t.edge_reach.(e)
let rounds t = t.rounds

let classes t =
  let seen = Hashtbl.create 16 in
  Array.iter (fun n -> if n >= 0 then Hashtbl.replace seen n ()) t.vn;
  Hashtbl.length seen
