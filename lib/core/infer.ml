(* The "related predicates" logic of §2.7: given that an edge predicate (a
   canonical comparison over atoms) is known to hold, decide the truth of
   another comparison. Two forms of relatedness are recognised:

   - both comparisons relate the same (congruent) pair of operands, in
     either order: decided by an operator implication table;
   - both compare a congruent value against (possibly different) integer
     constants: decided by interval reasoning, e.g. Z > 1 implies that
     Z < 1 is false.

   Atom congruence is delegated to the caller through [same]. *)

type verdict = True | False | Unknown

(* fact [a OP b] holds; what of query [a OP' b] over the same operands? *)
let same_operands_table (fact : Ir.Types.cmp) (query : Ir.Types.cmp) : verdict =
  let open Ir.Types in
  match (fact, query) with
  | Eq, Eq -> True
  | Eq, Ne -> False
  | Eq, Lt -> False
  | Eq, Le -> True
  | Eq, Gt -> False
  | Eq, Ge -> True
  | Ne, Ne -> True
  | Ne, Eq -> False
  | Ne, (Lt | Le | Gt | Ge) -> Unknown
  | Lt, Lt -> True
  | Lt, Le -> True
  | Lt, Ne -> True
  | Lt, Eq -> False
  | Lt, Gt -> False
  | Lt, Ge -> False
  | Le, Le -> True
  | Le, Gt -> False
  | Le, (Eq | Ne | Lt | Ge) -> Unknown
  | Gt, Gt -> True
  | Gt, Ge -> True
  | Gt, Ne -> True
  | Gt, Eq -> False
  | Gt, Lt -> False
  | Gt, Le -> False
  | Ge, Ge -> True
  | Ge, Lt -> False
  | Ge, (Eq | Ne | Gt | Le) -> Unknown

(* Interval solution set of [x OP c] over the machine integers. [Never] is
   the empty set: a fact that cannot hold (its edge never runs — every
   implication from it is vacuously true), or a query that is identically
   false. *)
type interval =
  | Exactly of int
  | Not of int
  | At_most of int
  | At_least of int
  | Never

(* Trap-aware at the domain edges: [x < min_int] and [x > max_int] are
   [Never] (the naive [c ± 1] would wrap to the full domain — unsound for
   queries); [x ≤ min_int] and [x ≥ max_int] pin the value exactly. *)
let interval_of ~(op : Ir.Types.cmp) ~c =
  match op with
  | Eq -> Exactly c
  | Ne -> Not c
  | Lt -> if c = min_int then Never else At_most (c - 1)
  | Le -> if c = min_int then Exactly min_int else At_most c
  | Gt -> if c = max_int then Never else At_least (c + 1)
  | Ge -> if c = max_int then Exactly max_int else At_least c

(* Given x ∈ [fact], is x ∈ [query]? *)
let interval_implies fact query : verdict =
  match (fact, query) with
  | Never, _ -> True (* unsatisfiable fact: vacuous *)
  | _, Never -> False
  | Exactly a, Exactly b -> if a = b then True else False
  | Exactly a, Not b -> if a = b then False else True
  | Exactly a, At_most b -> if a <= b then True else False
  | Exactly a, At_least b -> if a >= b then True else False
  | Not a, Not b -> if a = b then True else Unknown
  | Not a, Exactly b -> if a = b then False else Unknown
  | Not _, (At_most _ | At_least _) -> Unknown
  | At_most a, At_most b -> if a <= b then True else Unknown
  | At_most a, At_least b -> if a < b then False else Unknown
  | At_most a, Exactly b -> if b > a then False else Unknown
  | At_most a, Not b -> if b > a then True else Unknown
  | At_least a, At_least b -> if a >= b then True else Unknown
  | At_least a, At_most b -> if a > b then False else Unknown
  | At_least a, Exactly b -> if b < a then False else Unknown
  | At_least a, Not b -> if b < a then True else Unknown

(* [decide ~same ~const ~fop ~fa ~fb ~qop ~qa ~qb]: assuming fact
   [fa fop fb] holds, the truth of query [qa qop qb]. Comparisons come as
   scalar arguments — not tuples — because this runs once per dominating
   edge visited during predicate inference. Generic in the atom type: the
   engine passes hash-consed {!Hexpr} atoms, the tests their own. [same] is
   atom congruence, [const] recognises constant atoms. *)
(* Test-only fault injection: when set, the engine passes every verdict
   [decide] returns through this function. The mutant tests use it to ship
   an intentionally wrong implication table and assert the static
   cross-checker catches the engine's resulting bogus claims. Domain-local
   so a test injecting faults cannot leak wrong verdicts into pipelines
   running concurrently on other domains; the engine reads it once per
   walk, through [fault]. *)
let fault_key : (verdict -> verdict) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_fault f k =
  let saved = Domain.DLS.get fault_key in
  Domain.DLS.set fault_key (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set fault_key saved) k

let fault () = Domain.DLS.get fault_key

(* A fact normalized to [fx fop fc] (value against constant) decides a
   query with one constant side by interval reasoning. A top-level function,
   not a closure, so a [decide] call allocates none. *)
let decide_vc ~same ~const ~qop ~qa ~qb fx fop fc =
  match const qa with
  | Some qc ->
      if same fx qb then
        interval_implies (interval_of ~op:fop ~c:fc) (interval_of ~op:(Ir.Types.swap_cmp qop) ~c:qc)
      else Unknown
  | None -> (
      match const qb with
      | Some qc when same fx qa ->
          interval_implies (interval_of ~op:fop ~c:fc) (interval_of ~op:qop ~c:qc)
      | _ -> Unknown)

let decide ~same ~const ~fop ~fa ~fb ~qop ~qa ~qb : verdict =
  let table =
    if same fa qa && same fb qb then same_operands_table fop qop
    else if same fa qb && same fb qa then same_operands_table fop (Ir.Types.swap_cmp qop)
    else Unknown
  in
  if table <> Unknown then table
  else
    (* Both sides normalized value-vs-constant, without building tuples:
       the constant side is flipped to the right. *)
    match const fa with
    | Some fc -> decide_vc ~same ~const ~qop ~qa ~qb fb (Ir.Types.swap_cmp fop) fc
    | None -> (
        match const fb with
        | Some fc -> decide_vc ~same ~const ~qop ~qa ~qb fa fop fc
        | None -> Unknown)
