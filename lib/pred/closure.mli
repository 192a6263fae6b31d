(** The multi-fact decision procedure: congruence closure
    (equalities/disequalities, union-find with per-class constants)
    combined with difference-bound constraints over machine integers
    (transitivity of </≤ chains, value-vs-constant bounds, disequality
    sharpening at integer boundaries), trap-aware at [min_int]/[max_int].

    All stored bounds are upper bounds on mathematical differences, so
    dropping or weakening a bound is always sound; [True]/[False] verdicts
    hold in every model of the assumed facts. A contradictory state (the
    facts are jointly unsatisfiable — the dominated program point is
    unreachable) makes {!decide} answer [Unknown]: contradiction is
    reported via {!contradictory}, never turned into a branch verdict. *)

type t

type verdict = True | False | Unknown

val create : unit -> t
(** An empty closure (just the distinguished ZERO node). *)

val assume : t -> Atom.norm -> unit
(** Add a fact. [Triv false] (a statically false fact) contradicts. *)

val of_facts : Atom.t list -> t
(** [create] + [assume_all]. *)

val decide : t -> Ir.Types.cmp -> Atom.term -> Atom.term -> verdict
(** Truth of [x op y] in every model of the assumed facts. [Unknown] when
    undecided or when the state is contradictory. *)

val contradictory : t -> bool
(** The assumed facts are jointly unsatisfiable. *)

(** {1 Test-only fault injection}

    Seeded unsound mutants for the certification tests, mirroring
    [Infer.with_fault]; domain-local. *)

type fault =
  | Force_true  (** fabricate [True] for every undecided query *)
  | Flip_verdict  (** invert [True]/[False] *)
  | Wrap_const_negate
      (** drop the [−min_int] overflow guard when interning constants,
          producing spurious contradictions on reachable paths *)

val with_fault : fault -> (unit -> 'a) -> 'a
