(* Normalized comparison atoms: the common currency of the implication
   engine. A term is either an integer constant or an opaque id — SSA value
   ids when the atoms come from a routine's terminators ({!Facts}),
   congruence-class ids when they come from the GVN engine's dominating-edge
   walk (where two values in one class are interchangeable by construction).

   Normalization folds constant-constant and reflexive comparisons away and
   orders the operands canonically (mirroring the engine's [cmp_atoms]), so
   structurally equal facts collide under [equal]/[compare] regardless of
   how the source spelled them. *)

type term = Const of int | Term of int

type t = { op : Ir.Types.cmp; a : term; b : term }

type norm = Atom of t | Triv of bool

let term_equal (x : term) (y : term) = x = y
let compare_term (x : term) (y : term) = Stdlib.compare x y

let make op a b : norm =
  match (a, b) with
  | Const x, Const y -> Triv (Ir.Types.eval_cmp op x y = 1)
  | _ ->
      if term_equal a b then
        Triv (match op with Ir.Types.Eq | Ir.Types.Le | Ir.Types.Ge -> true
                          | Ir.Types.Ne | Ir.Types.Lt | Ir.Types.Gt -> false)
      else if compare_term a b <= 0 then Atom { op; a; b }
      else Atom { op = Ir.Types.swap_cmp op; a = b; b = a }

(* A canonically false atom: {!Closure.assume} turns it into a
   contradiction. Used by {!Facts} to represent a statically false edge
   fact (e.g. the false edge of [branch 1]) without a separate marker. *)
let never = { op = Ir.Types.Ne; a = Const 0; b = Const 0 }

let equal (x : t) (y : t) = x = y
let compare (x : t) (y : t) = Stdlib.compare x y

(* Truth of the atom under an assignment of ids to integers. [lookup]
   raises [Not_found] for unassigned ids. *)
let eval lookup { op; a; b } =
  let value = function Const k -> k | Term x -> lookup x in
  Ir.Types.eval_cmp op (value a) (value b) = 1

let pp_term ppf = function
  | Const k -> Fmt.int ppf k
  | Term x -> Fmt.pf ppf "t%d" x

let pp ppf { op; a; b } =
  Fmt.pf ppf "%a %s %a" pp_term a (Ir.Types.string_of_cmp op) pp_term b
