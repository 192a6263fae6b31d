(* Run-time configuration of the GVN engine: the value-numbering mode, the
   per-analysis switches (§1.3: "it allows the other analyses to be
   selectively disabled"), the sparse/dense switch (§5, Table 2) and the
   practical/complete variant switch (§2).

   The [emulate_*] presets implement §2.9: with suitable analyses disabled
   the engine computes the same result as the named prior algorithms. *)

type mode =
  | Optimistic (* start: only entry reachable, all values congruent *)
  | Balanced (* reachability optimistic, congruence pessimistic; 1 pass *)
  | Pessimistic (* everything reachable, values congruent to self; 1 pass *)

type variant =
  | Practical (* static dominator tree + RPO-downstream touching *)
  | Complete (* incremental reachable dominator tree *)

type t = {
  mode : mode;
  variant : variant;
  sparse : bool; (* false = brute-force retouching of the whole routine *)
  constant_folding : bool;
  algebraic_simplification : bool;
  rules : bool;
      (* consult the declarative rule catalog (lib/rules) during algebraic
         simplification; off restricts simplification to constant folding
         and commutative canonicalization *)
  unreachable_code : bool; (* conditional reachability of edges *)
  reassociation : bool; (* global reassociation / forward propagation *)
  predicate_inference : bool;
  value_inference : bool;
  phi_predication : bool;
  pred_closure : bool;
      (* extension: when the single-fact predicate inference of §2.7 fails,
         re-ask the query against the *conjunction* of all dominating-edge
         facts through the lib/pred implication closure (congruence +
         difference-bound constraints). Strictly stronger — it runs only as
         a fallback — but off by default: the paper decides from one
         related predicate at a time. *)
  sccp_only : bool; (* replace non-constant expressions by Self (§2.9) *)
  propagation_limit : int; (* max operand count before propagation cancels *)
  phi_distribution : bool;
      (* extension (§6): incorporate φ(x1,x2) op φ(y1,y2) →
         φ(x1 op y1, x2 op y2) into reassociation, capturing the
         Rüthing–Knoop–Steffen congruences of Figure 14. Off by default:
         the paper leaves its practicality open. *)
}

let full =
  {
    mode = Optimistic;
    variant = Practical;
    sparse = true;
    constant_folding = true;
    algebraic_simplification = true;
    rules = true;
    unreachable_code = true;
    reassociation = true;
    predicate_inference = true;
    value_inference = true;
    phi_predication = true;
    pred_closure = false;
    sccp_only = false;
    propagation_limit = 16;
    phi_distribution = false;
  }

(* The full algorithm plus the §6 op-of-φ distribution extension. *)
let full_extended = { full with phi_distribution = true }

let balanced = { full with mode = Balanced }
let pessimistic = { full with mode = Pessimistic }

(* Table 2's "basic" configuration: global reassociation, predicate
   inference, value inference and φ-predication disabled. *)
let basic =
  {
    full with
    reassociation = false;
    predicate_inference = false;
    value_inference = false;
    phi_predication = false;
  }

let dense = { full with sparse = false }

(* §2.9 presets. *)

(* Alpern–Wegman–Zadeck / Simpson RPO / Simpson SCC: optimistic value
   numbering only. *)
let emulate_awz =
  {
    basic with
    constant_folding = false;
    algebraic_simplification = false;
    unreachable_code = false;
  }

(* Click's strongest algorithm: optimistic value numbering + constant
   folding + algebraic simplification + unreachable code elimination. *)
let emulate_click = basic

(* Wegman–Zadeck sparse conditional constant propagation, as §2.9 defines
   the emulation (on top of the Click feature set, so algebraic
   simplification stays on). *)
let emulate_sccp = { basic with sccp_only = true }

(* Bit-exact Wegman–Zadeck: constant folding and unreachable-code analysis
   only. Matches the independent [Baselines.Sccp] implementation exactly;
   used for cross-validation. *)
let emulate_sccp_exact = { emulate_sccp with algebraic_simplification = false }
