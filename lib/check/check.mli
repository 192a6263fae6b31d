(** A multi-pass IR verifier and linter with structured diagnostics.

    Four checkers, run in dependency order:
    - {!Cfg}: edge-table/block-list mirror consistency, terminator
      placement and arity, entry invariants, duplicate/critical edges;
    - {!Ssa}: single definition, φ placement/arity, def-dominates-use,
      per-edge φ-argument availability, unreachable-def uses;
    - {!Ty}: a Bot < Bool < Int refinement with per-opcode agreement
      checks (parameter range, opaque arity, dead boolean switch cases);
    - {!Lint}: warnings for valid-but-unclean IR (unreachable blocks, dead
      pure instructions, trivial φs, forwarder blocks, constant branches).

    Checkers return {!Diagnostic.t} lists and never raise; {!check_exn} is
    the raise-on-error entry point. *)

module Diagnostic = Diagnostic
module Cfg = Cfg_check
module Ssa = Ssa_check
module Ty = Type_check
module Lint = Lint

module Schedule = Schedule_check
(** Schedule-legality verifier for proposed code-motion placements; not
    part of {!run_all} — it takes a placement, and the identity placement
    is certified by its own alias/CI step. *)

val run_all : ?lint:bool -> Ir.Func.t -> Diagnostic.t list
(** Run every checker. Structural (CFG) errors stop the run — the deeper
    checkers assume a sound CFG — as do SSA errors for the type checker and
    linter. [lint] (default false) adds the warning tier. *)

val errors : Diagnostic.t list -> Diagnostic.t list
(** The [Error]-severity subset. *)

val has_errors : Diagnostic.t list -> bool

val sort : Diagnostic.t list -> Diagnostic.t list
(** Stable report order: severity, then check id, then location. *)

val check_exn : Ir.Func.t -> Ir.Func.t
(** Returns its argument. @raise Failure rendering the first
    [Error]-severity diagnostic, if any. *)

val pp_report : Format.formatter -> string * Diagnostic.t list -> unit
(** Render a named function's diagnostics, one per line, sorted. *)
