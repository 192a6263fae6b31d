(* Sparse collection of the branch/switch facts established on the
   dominator-tree path to each block and edge — the syntactic mirror of the
   GVN driver's dominating-edge walk, over a routine's SSA values (terms
   are value ids; values defined as constants become [Const] terms). This
   is the repo's one source of branch-edge facts: the implication closure,
   the sparse interval and constant analyses ([Absint.Sparse] refines
   through the value-versus-constant atoms), the lint tier, GCM placement,
   the schedule checker and the static cross-checker all read it.

   Structure (per the per-edge conventions of [Core.Phipred]): an edge
   derives facts from the terminator that creates it — the true edge of
   [branch c] asserts [c ≠ 0] (and, when [c] is a comparison, the
   comparison itself; [Lnot] chains flip polarity), a switch case edge pins
   the scrutinee, the default edge excludes every case. The facts are
   syntactic, so they are computed once up front and never depend on
   evolving analysis facts or executability. A block with a single
   predecessor edge inherits that edge's facts, and — by induction along
   the dominator tree — those of every single-predecessor dominating
   ancestor.

   Soundness on concrete traces: a block's sole static in-edge is the only
   way execution can enter it, the idom chain is on every path from entry,
   and SSA values are immutable once defined — so every collected fact
   holds whenever the block (resp. edge) executes. The instrumented-
   interpreter differential in the test tier checks exactly this. *)

type t = {
  func : Ir.Func.t;
  terms : Atom.term array;  (* per value: its term, [unset] if no atom names it *)
  edges : Atom.t list array;  (* facts established by traversing edge e *)
  blocks : Atom.t list array;  (* facts holding on entry to block b *)
}

(* Negations of constants fold too — the front end spells [-1] as
   [Unop (Neg, const 1)] — so guards like [d != -1] yield exact bounds.
   OCaml negation has the IR's wrapping semantics, min_int included. *)
let term_of f v =
  match Ir.Func.instr f v with
  | Ir.Func.Const k -> Atom.Const k
  | Ir.Func.Unop (Ir.Types.Neg, x) -> (
      match Ir.Func.instr f x with
      | Ir.Func.Const k -> Atom.Const (-k)
      | _ -> Atom.Term v)
  | _ -> Atom.Term v

let add acc op a b =
  match Atom.make op a b with
  | Atom.Atom at -> at :: acc
  | Atom.Triv true -> acc
  | Atom.Triv false -> Atom.never :: acc

let truth_const truth = if truth then Atom.Const 1 else Atom.Const 0

(* Facts from "value [v] is truthy/zero": comparisons and [Lnot] pin the
   value to 1/0 and assert (or negate) the underlying comparison; other
   truthy values are merely nonzero. [term] names a value. *)
let rec derive f term acc v truth =
  match Ir.Func.instr f v with
  | Ir.Func.Cmp (op, a, b) ->
      let acc = add acc Ir.Types.Eq (term v) (truth_const truth) in
      let op = if truth then op else Ir.Types.negate_cmp op in
      add acc op (term a) (term b)
  | Ir.Func.Unop (Ir.Types.Lnot, x) ->
      let acc = add acc Ir.Types.Eq (term v) (truth_const truth) in
      derive f term acc x (not truth)
  | _ -> add acc (if truth then Ir.Types.Ne else Ir.Types.Eq) (term v) (Atom.Const 0)

let edge_facts (f : Ir.Func.t) term (e : int) : Atom.t list =
  let edge = f.Ir.Func.edges.(e) in
  match Ir.Func.instr f (Ir.Func.terminator_of_block f edge.Ir.Func.src) with
  | Ir.Func.Branch c -> derive f term [] c (edge.Ir.Func.src_ix = 0)
  | Ir.Func.Switch (c, cases) ->
      if edge.Ir.Func.src_ix < Array.length cases then
        add [] Ir.Types.Eq (term c) (Atom.Const cases.(edge.Ir.Func.src_ix))
      else
        (* The default edge excludes every case. *)
        Array.fold_left (fun acc k -> add acc Ir.Types.Ne (term c) (Atom.Const k)) [] cases
  | _ -> []

(* Sentinel of the per-value term memo below. *)
let unset = Atom.Term (-1)

let compute ?ctx (f : Ir.Func.t) : t =
  let nb = Array.length f.Ir.Func.blocks in
  (* One term cell per value, shared by every atom naming it: the atom
     lists live as long as the analyses reading them, so sharing shrinks
     what survives their minor collections. The memo also answers
     [mentions]. *)
  let terms = Array.make (Ir.Func.num_instrs f) unset in
  let term v =
    let t = terms.(v) in
    if t != unset then t
    else begin
      let t = term_of f v in
      terms.(v) <- t;
      t
    end
  in
  let edges = Array.init (Array.length f.Ir.Func.edges) (edge_facts f term) in
  let dom = Analysis.Ctx.dom (Analysis.Ctx.get ?ctx f) f in
  let blocks = Array.make nb [] in
  let visited = Array.make nb false in
  let rec at_block b =
    if visited.(b) then blocks.(b)
    else begin
      visited.(b) <- true;
      let own =
        match f.Ir.Func.blocks.(b).Ir.Func.preds with
        | [| e |] -> edges.(e)
        | _ -> []
      in
      let inherited =
        let d = dom.Analysis.Dom.idom.(b) in
        if d >= 0 && d <> b then at_block d else []
      in
      blocks.(b) <- own @ inherited;
      blocks.(b)
    end
  in
  for b = 0 to nb - 1 do
    ignore (at_block b)
  done;
  { func = f; terms; edges; blocks }

let mentions t v = t.terms.(v) != unset
let at_block t b = t.blocks.(b)
let at_edge t e = t.edges.(e) @ t.blocks.(t.func.Ir.Func.edges.(e).Ir.Func.src)

let closure_at_block t b = Closure.of_facts (at_block t b)

let pp_facts ppf fs = Fmt.(list ~sep:(any " ∧ ") Atom.pp) ppf fs
