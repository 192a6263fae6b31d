(** A dependency-free domain pool for per-routine work: a fixed worker
    set — the calling domain plus [domains - 1] spawned ones — built on
    the stdlib's [Atomic], [Mutex] and [Condition].

    The pool is batch-oriented: {!map} publishes one array of independent
    tasks, wakes the workers, joins in as a worker itself, and returns when
    every task has finished. Every participant claims the next unclaimed
    index from the batch's own atomic counter, so a long task never holds
    back the rest of its batch, and a worker that wakes after the batch has
    drained finds nothing to claim. Idle workers sleep on a condition
    variable rather than spin. Results come back in input order regardless
    of execution interleaving, which is what the parallel driver's
    determinism guarantee is built on.

    With [domains = 1] no domain is ever spawned and {!map} degrades to a
    plain sequential [Array.map] — the graceful fallback for single-core
    hosts and for OCaml runtimes where spawning is undesirable.

    A pool must be shut down ({!shutdown} or the {!with_pool} wrapper);
    spawned domains otherwise keep the process alive. *)

type t

val max_domains : int
(** The runtime's limit on live domains (128 on 64-bit OCaml 5.1): the
    largest [domains] {!create} accepts. *)

val create : ?domains:int -> unit -> t
(** [domains] is the total worker count including the caller (so [n]
    domains of compute use the calling domain plus [n - 1] spawned ones);
    it defaults to {!Domain.recommended_domain_count} and is clamped to at
    least 1.
    @raise Invalid_argument when [domains < 1] or [domains > max_domains]
    is passed explicitly; nothing is spawned then. *)

val size : t -> int
(** The total worker count (spawned domains + the caller). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element, fanned out across the pool's workers;
    [map] only returns once every element has been processed, and
    [(map t f a).(i) = f a.(i)] positionally. [f] runs on an arbitrary
    domain: it must not share unsynchronized mutable state across calls.
    If one or more applications raise, the leftmost element's exception is
    re-raised in the caller after the whole batch has drained (no task is
    abandoned mid-flight).

    Only the owning (creating) domain may call [map], and batches do not
    nest: calling [map] from inside a task deadlocks. *)

val shutdown : t -> unit
(** Join the spawned domains. Idempotent; the pool must not be used
    afterwards. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — exception-safe. *)
