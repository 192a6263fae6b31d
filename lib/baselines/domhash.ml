(* Pessimistic hash-based value numbering over the dominator tree, in the
   style of Click's O(I) algorithm [8]: a single preorder walk of the
   dominator tree with a scoped hash table (bindings are undone when the
   walk leaves a subtree), unified with constant folding. Cyclic φs — whose
   back-edge arguments are not yet numbered when the φ is reached — are
   unique values, which is exactly the pessimism the paper describes. *)

type rep = Rval of int | Rconst of int

let rep_equal a b =
  match (a, b) with
  | Rval x, Rval y -> x = y
  | Rconst x, Rconst y -> x = y
  | (Rval _ | Rconst _), _ -> false

(* Folding and simplification consult the shared rule table (lib/rules)
   through a shallow adapter: an operand is a value number or a known
   constant, and rules whose right-hand side would need a fresh compound
   expression are declined. The engine consults the same catalog through a
   deeper adapter, so everything this baseline simplifies, the engine does
   too (the refinement property the tests pin). *)
let rules_subject : rep Rules.Engine.subject =
  {
    Rules.Engine.view =
      (function Rconst c -> Rules.Engine.Sconst c | Rval _ -> Rules.Engine.Satom);
    equal = rep_equal;
    bconst = (fun c -> Rconst c);
    bunop = (fun _ _ -> None);
    bbinop = (fun _ _ _ -> None);
    reduce = (fun _ -> None);
    fired = ignore;
  }

type key =
  | Kconst of int
  | Kparam of int
  | Kopq of int * rep list
  | Kphi of int * rep list
  | Kunop of Ir.Types.unop * rep
  | Kbinop of Ir.Types.binop * rep * rep
  | Kcmp of Ir.Types.cmp * rep * rep

(* Keys are interned per run; the scoped table and its undo list hold the
   consed cells, so probe, bind and rollback all hash a precomputed tag. *)
module HK = Util.Hashcons.Make (struct
  type t = key

  let equal (a : key) (b : key) = a = b
  let hash (k : key) = Hashtbl.hash k
end)

type result = { rep : rep array (* per value; [Rval v] itself when unique *) }

let run (f : Ir.Func.t) : result =
  let ni = Ir.Func.num_instrs f in
  let dom = Analysis.Ctx.dom (Analysis.Ctx.create f) f in
  let out = Array.make ni (Rval (-1)) in
  let known = Array.make ni false in
  let arena = HK.create ~size:64 () in
  let table : rep HK.Tbl.t = HK.Tbl.create 64 in
  let undo = ref [] in
  let bind ck r =
    HK.Tbl.add table ck r;
    undo := ck :: !undo
  in
  let fold_key = function
    | Kunop (op, a) -> Rules.Engine.rewrite_unop Rules.Engine.shared rules_subject op a
    | Kbinop (op, a, b) ->
        Rules.Engine.rewrite_binop Rules.Engine.shared rules_subject op a b
    | Kcmp (op, Rconst a, Rconst b) -> Some (Rconst (Ir.Types.eval_cmp op a b))
    | Kconst n -> Some (Rconst n)
    | _ -> None
  in
  let number v k =
    match fold_key k with
    | Some r -> r
    | None -> (
        let ck = HK.hashcons arena k in
        match HK.Tbl.find_opt table ck with
        | Some r -> r
        | None ->
            bind ck (Rval v);
            Rval v)
  in
  let rep_of a = if known.(a) then out.(a) else Rval a in
  let rec walk b =
    let mark = !undo in
    Array.iter
      (fun i ->
        match Ir.Func.instr f i with
        | Ir.Func.Const n ->
            out.(i) <- number i (Kconst n);
            known.(i) <- true
        | Ir.Func.Param k ->
            out.(i) <- number i (Kparam k);
            known.(i) <- true
        | Ir.Func.Opaque (tag, args) ->
            out.(i) <- number i (Kopq (tag, Array.to_list (Array.map rep_of args)));
            known.(i) <- true
        | Ir.Func.Unop (op, a) ->
            out.(i) <- number i (Kunop (op, rep_of a));
            known.(i) <- true
        | Ir.Func.Binop (op, a, b') ->
            out.(i) <- number i (Kbinop (op, rep_of a, rep_of b'));
            known.(i) <- true
        | Ir.Func.Cmp (op, a, b') ->
            out.(i) <- number i (Kcmp (op, rep_of a, rep_of b'));
            known.(i) <- true
        | Ir.Func.Phi args ->
            let cyclic = Array.exists (fun a -> not known.(a)) args in
            if cyclic then out.(i) <- Rval i
            else begin
              let reps = Array.to_list (Array.map rep_of args) in
              match reps with
              | first :: rest when List.for_all (rep_equal first) rest -> out.(i) <- first
              | _ -> out.(i) <- number i (Kphi (b, reps))
            end;
            known.(i) <- true
        | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> ())
      (Ir.Func.block f b).Ir.Func.instrs;
    Array.iter walk dom.Analysis.Dom.children.(b);
    (* Leave scope: undo the bindings made in this block. *)
    let rec rollback () =
      if !undo != mark then
        match !undo with
        | ck :: rest ->
            HK.Tbl.remove table ck;
            undo := rest;
            rollback ()
        | [] -> ()
    in
    rollback ()
  in
  walk Ir.Func.entry;
  { rep = out }

let constant_of r v = match r.rep.(v) with Rconst n -> Some n | Rval _ -> None
let congruent r v w = rep_equal r.rep.(v) r.rep.(w)
