(* The multi-fact decision procedure: congruence closure over
   equalities/disequalities combined with difference-bound constraints.

   Terms are interned as nodes of a small difference-bound matrix (DBM):
   [dist.(i).(j) = w] records the derived fact [t_i − t_j ≤ w] (over the
   mathematical integers; [inf] = no bound). Every interned constant [c]
   gets exact edges against the distinguished ZERO node (the node of
   [Const 0]), so value-vs-constant bounds, constant-vs-constant ordering
   and transitivity of </≤ chains all fall out of shortest paths. Asserted
   equalities are 0-weight edges both ways plus a union-find merge (the
   union-find carries per-class constants, giving O(1) equality answers and
   immediate constant-conflict contradictions); disequalities live in a
   side list and sharpen the DBM at integer boundaries
   (x ≤ y ∧ x ≠ y ⇒ x ≤ y − 1) to a fixpoint.

   Soundness under machine arithmetic: all stored bounds are *upper* bounds
   on mathematical differences of 63-bit machine integers, so weakening is
   always sound. Path relaxation that would overflow upward stores [inf]
   (the constraint is dropped); relaxation that would underflow clamps to
   [min_int] (still an upper bound, since the true sum is even smaller).
   Trap-awareness at the domain boundary: a fact [x < min_int] or
   [x > max_int] is unsatisfiable and marks the state contradictory, while
   [x ≤ min_int] / [x ≥ max_int] strengthen to equalities.

   A contradictory state means the conjunction of assumed facts cannot hold
   — the program point they dominate is unreachable. [decide] then answers
   [Unknown]: contradiction is surfaced through {!contradictory} (feeding
   the unreachability lint and counters), never used to fabricate branch
   verdicts. *)

type verdict = True | False | Unknown

let inf = max_int

(* Sound bound addition: +∞ absorbs, overflow drops to +∞, underflow
   clamps to [min_int] (a weaker but still valid upper bound). *)
let ( +! ) a b =
  if a = inf || b = inf then inf
  else
    let s = a + b in
    if a > 0 && b > 0 && s < 0 then inf
    else if a < 0 && b < 0 && s >= 0 then min_int
    else s

type t = {
  mutable n : int;  (* interned node count *)
  terms : (Atom.term, int) Hashtbl.t;
  mutable parent : int array;  (* union-find over nodes *)
  mutable konst : int option array;  (* per root: known constant *)
  mutable dist : int array array;  (* dist.(i).(j): t_i − t_j ≤ w; [inf] = none *)
  mutable diseqs : (int * int) list;  (* asserted t_i ≠ t_j, as interned nodes *)
  mutable contradictory : bool;
}

(* ------------------------------------------------------------------ *)
(* Test-only fault injection, mirroring [Infer.with_fault]: seeded
   unsound mutants that the certification layers must each reject.
   Domain-local so a faulty closure cannot leak across domains. *)

type fault =
  | Force_true  (* Unknown verdicts become True: fabricated decisions *)
  | Flip_verdict  (* True ↔ False: inverted decisions *)
  | Wrap_const_negate
      (* negate min_int without the overflow guard when interning
         constants: spurious negative cycles, i.e. reachable paths
         claimed contradictory *)

let fault_key : fault option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_fault f k =
  let saved = Domain.DLS.get fault_key in
  Domain.DLS.set fault_key (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set fault_key saved) k

let fault_is f = Domain.DLS.get fault_key = Some f

(* ------------------------------------------------------------------ *)

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let r = find t p in
    t.parent.(x) <- r;
    r
  end

let grow t =
  let cap = Array.length t.parent in
  if t.n >= cap then begin
    let cap' = max 8 (2 * cap) in
    let parent' = Array.init cap' (fun i -> if i < cap then t.parent.(i) else i) in
    let konst' = Array.make cap' None in
    Array.blit t.konst 0 konst' 0 cap;
    let dist' =
      Array.init cap' (fun i ->
          let row = Array.make cap' inf in
          if i < cap then Array.blit t.dist.(i) 0 row 0 cap;
          row.(i) <- 0;
          row)
    in
    t.parent <- parent';
    t.konst <- konst';
    t.dist <- dist'
  end

(* Add the derived bound [t_u − t_v ≤ w] and restore all-pairs shortest
   paths incrementally: any i→j path improved by the new edge goes
   i→u→v→j. O(n²) per inserted edge; n is the handful of terms a
   dominating-fact conjunction mentions. *)
let add_edge t u v w =
  if w < t.dist.(u).(v) then begin
    for i = 0 to t.n - 1 do
      let diu = t.dist.(i).(u) in
      if diu <> inf then begin
        let base = diu +! w in
        if base <> inf then
          for j = 0 to t.n - 1 do
            let dvj = t.dist.(v).(j) in
            if dvj <> inf then begin
              let cand = base +! dvj in
              if cand < t.dist.(i).(j) then t.dist.(i).(j) <- cand
            end
          done
      end
    done;
    for i = 0 to t.n - 1 do
      if t.dist.(i).(i) < 0 then t.contradictory <- true
    done
  end

let node_of t (x : Atom.term) =
  match Hashtbl.find_opt t.terms x with
  | Some n -> n
  | None ->
      grow t;
      let n = t.n in
      t.n <- t.n + 1;
      Hashtbl.add t.terms x n;
      (match x with
      | Atom.Const k ->
          t.konst.(n) <- Some k;
          (* Exact bounds against ZERO (node 0, interned at [create]):
             c − 0 ≤ k and 0 − c ≤ −k. The second is guarded: −min_int
             overflows the machine word, so that direction is dropped —
             a sound weakening. The [Wrap_const_negate] mutant skips the
             guard, wrapping −min_int back to min_int. *)
          if n > 0 then begin
            add_edge t n 0 k;
            if k <> min_int || fault_is Wrap_const_negate then add_edge t 0 n (-k)
          end
      | Atom.Term _ -> ());
      n

let create () =
  let t =
    {
      n = 0;
      terms = Hashtbl.create 16;
      parent = [||];
      konst = [||];
      dist = [||];
      diseqs = [];
      contradictory = false;
    }
  in
  ignore (node_of t (Atom.Const 0));  (* ZERO *)
  t

let contradictory t = t.contradictory

(* Two nodes proved equal: same union-find class, or 0-bounds both ways. *)
let nodes_equal t a b =
  a = b || find t a = find t b || (t.dist.(a).(b) <= 0 && t.dist.(b).(a) <= 0)

let nodes_diseq t a b =
  t.dist.(a).(b) < 0
  || t.dist.(b).(a) < 0
  || List.exists
       (fun (p, q) ->
         (nodes_equal t p a && nodes_equal t q b)
         || (nodes_equal t p b && nodes_equal t q a))
       t.diseqs

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let k =
      match (t.konst.(ra), t.konst.(rb)) with
      | Some x, Some y ->
          if x <> y then t.contradictory <- true;
          Some x
      | (Some _ as k), None | None, (Some _ as k) -> k
      | None, None -> None
    in
    t.parent.(rb) <- ra;
    t.konst.(ra) <- k
  end

(* Disequality sharpening, to a fixpoint: over the integers,
   x − y ≤ 0 ∧ x ≠ y ⇒ x − y ≤ −1. Together with the negative-diagonal
   check this also turns "equal ∧ disequal" into a contradiction. *)
let rec tighten t =
  if not t.contradictory then begin
    let changed = ref false in
    List.iter
      (fun (a, b) ->
        if t.dist.(a).(b) = 0 then begin
          add_edge t a b (-1);
          changed := true
        end;
        if t.dist.(b).(a) = 0 then begin
          add_edge t b a (-1);
          changed := true
        end)
      t.diseqs;
    if !changed then tighten t
  end

(* Assume [x op y], already re-oriented so a lone constant sits on the
   right. Trap-aware domain-boundary handling happens here. *)
let rec assume_oriented t op (x : Atom.term) (y : Atom.term) =
  let open Ir.Types in
  match (op, y) with
  | Lt, Atom.Const k when k = min_int -> t.contradictory <- true
  | Gt, Atom.Const k when k = max_int -> t.contradictory <- true
  | Le, Atom.Const k when k = min_int -> assume_oriented t Eq x y
  | Ge, Atom.Const k when k = max_int -> assume_oriented t Eq x y
  | _ ->
      let nx = node_of t x and ny = node_of t y in
      (match op with
      | Eq ->
          union t nx ny;
          add_edge t nx ny 0;
          add_edge t ny nx 0
      | Ne ->
          if nodes_equal t nx ny then t.contradictory <- true
          else t.diseqs <- (nx, ny) :: t.diseqs
      | Le -> add_edge t nx ny 0
      | Lt -> add_edge t nx ny (-1)
      | Ge -> add_edge t ny nx 0
      | Gt -> add_edge t ny nx (-1));
      tighten t

let assume_atom t ({ Atom.op; a; b } : Atom.t) =
  match (a, b) with
  | Atom.Const x, Atom.Const y ->
      (* [Atom.make] folds these, but raw atoms (e.g. {!Atom.never}) may
         still carry them: evaluate directly. *)
      if Ir.Types.eval_cmp op x y = 0 then t.contradictory <- true
  | Atom.Const _, _ -> assume_oriented t (Ir.Types.swap_cmp op) b a
  | _, _ -> assume_oriented t op a b

let assume t (n : Atom.norm) =
  match n with
  | Atom.Triv true -> ()
  | Atom.Triv false -> t.contradictory <- true
  | Atom.Atom a -> assume_atom t a

let assume_all t atoms = List.iter (assume_atom t) atoms

let of_facts atoms =
  let t = create () in
  assume_all t atoms;
  t

(* ------------------------------------------------------------------ *)

let apply_fault v =
  match Domain.DLS.get fault_key with
  | Some Force_true -> ( match v with Unknown -> True | v -> v)
  | Some Flip_verdict -> ( match v with True -> False | False -> True | Unknown -> Unknown)
  | _ -> v

let rec decide_nodes t op nx ny =
  let open Ir.Types in
  let d_xy = t.dist.(nx).(ny) and d_yx = t.dist.(ny).(nx) in
  match op with
  | Eq ->
      if nodes_equal t nx ny then True
      else if nodes_diseq t nx ny then False
      else Unknown
  | Ne ->
      if nodes_diseq t nx ny then True
      else if nodes_equal t nx ny then False
      else Unknown
  | Le ->
      if d_xy <= 0 then True
      else if d_yx < 0 || (d_yx = 0 && nodes_diseq t nx ny) then False
      else Unknown
  | Lt ->
      if d_xy < 0 || (d_xy = 0 && nodes_diseq t nx ny) then True
      else if d_yx <= 0 then False
      else Unknown
  | Ge -> decide_nodes t Le ny nx
  | Gt -> decide_nodes t Lt ny nx

let decide t op (x : Atom.term) (y : Atom.term) : verdict =
  apply_fault
    (if t.contradictory then Unknown
     else
       match (x, y) with
       | Atom.Const a, Atom.Const b ->
           if Ir.Types.eval_cmp op a b = 1 then True else False
       | _ ->
           (* Interning a query operand is harmless: a fresh term node is
              unconstrained, a fresh constant only adds its exact ZERO
              bounds (no assumptions). *)
           let nx = node_of t x and ny = node_of t y in
           if t.contradictory then Unknown else decide_nodes t op nx ny)
