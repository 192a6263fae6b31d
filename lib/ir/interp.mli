(** A reference interpreter for SSA functions — the ground-truth oracle of
    the test suite: optimization must not change the observable result of
    any execution. *)

type result =
  | Ret of int
  | Trap  (** division/remainder by zero, or the min_int / -1 overflow *)
  | Timeout  (** fuel exhausted *)

val equal_result : result -> result -> bool
val pp_result : Format.formatter -> result -> unit

val opaque_model : int -> int array -> int
(** The concrete model of {!Func.instr.Opaque}: a deterministic 64-bit mix
    of the tag and arguments (any pure function is a valid model; this one
    looks adversarial to the optimizer). *)

type trace = { mutable steps : int; mutable blocks_visited : int }

val run : ?fuel:int -> ?trace:trace -> Func.t -> int array -> result
(** Execute on the given arguments (missing parameters read 0). [fuel]
    bounds executed instructions (default 100_000); every instruction, φs
    included, costs one unit and counts one [trace] step. The three entry
    points share one loop, which allocates per run, not per block or
    instruction.
    @raise Invalid_argument on an empty block or a φ in the entry block. *)

val run_instrumented :
  ?fuel:int ->
  ?on_def:(int -> int -> unit) ->
  ?on_edge:(int -> unit) ->
  ?on_block:(int -> unit) ->
  Func.t ->
  int array ->
  result
(** Like {!run} with observation hooks: [on_def i v] fires each time
    instruction [i] defines value [v] (φs fire at block entry, as the
    parallel copy commits), [on_edge] on every traversed CFG edge,
    [on_block] on every block entry. Used by the translation validator to
    refute witness claims at the program point where they are made. *)

val run_with_env : ?fuel:int -> Func.t -> int array -> result * int option array
(** Like {!run}, also returning the value each instruction {e last}
    computed ([None] if it never executed). Congruent values must agree
    whenever each instruction executes at most once. *)
