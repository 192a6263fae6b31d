(** Content-addressed result cache for the compilation service (ROADMAP
    item 1): results are keyed by a canonical structural hash of the input
    routine, so the same routine — under any block numbering the canonical
    traversal erases — is compiled once and answered from cache thereafter.

    {2 Keys}

    A {!key} is the pair of a 63-bit structural hash and the canonical
    form it was computed from. The canonical form renumbers blocks in
    reverse post-order from the entry and values densely in traversal
    order, and sorts φ arguments by their canonical carrying edge — so two
    routines that differ only in block layout (and in the value/block ids
    that layout induces) canonicalize identically, while anything
    semantically visible (operator, operand structure, successor order,
    parameter count, routine name) is preserved verbatim. Lookups are
    verify-on-hit: the stored canonical form is compared byte-for-byte
    before an entry is answered, so a structural-hash collision degrades
    to a miss, never to a wrong answer.

    Results are opaque strings chosen by the client (the driver caches the
    routine's full rendered output plus its failure bit). A client whose
    result depends on anything beyond the routine body — configuration,
    flags — must fold a fingerprint of that context into the key via
    [key_of ~fingerprint].

    {2 Tiers}

    The in-memory tier is a mutex-protected table safe for concurrent
    pool workers, bounded by [capacity] entries with oldest-first
    eviction. The optional persisted tier is a versioned file ({!save} /
    {!load}); a missing, truncated or corrupted file loads as a cold
    cache — persistence failures can cost a recompile, never an error.

    Hit/miss/eviction totals are exposed as {!stats} and, when an [?obs]
    context is supplied, as the [ccache.hits] / [ccache.misses] /
    [ccache.evictions] counters. *)

type key = { khash : int; kcanon : string }

val key_of : ?fingerprint:string -> Ir.Func.t -> key
(** The canonical structural key of a routine. [fingerprint] (default
    [""]) is folded into the canonical form — pass an encoding of every
    configuration bit the cached result depends on. *)

val canonical_form : ?fingerprint:string -> Ir.Func.t -> string
(** The canonical form [key_of] hashes, exposed for tests and debugging. *)

val fnv1a : string -> int
(** The 64-bit FNV-1a hash [key_of] applies to the canonical form, folded
    to a nonnegative [int]. Persisted [pgvn-ccache/1] files store it, so it
    must not change. *)

type t

type stats = { entries : int; hits : int; misses : int; evictions : int }

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entry count (default 4096, clamped to >= 1);
    inserting past it evicts oldest-first. *)

val find : ?obs:Obs.t -> t -> key -> string option
(** Verify-on-hit lookup: [Some] only when an entry's canonical form
    matches [key.kcanon] exactly. Counts one hit or one miss. *)

val add : ?obs:Obs.t -> t -> key -> string -> unit
(** Insert (or overwrite) the result for [key], evicting the oldest entry
    when over capacity. *)

val stats : t -> stats

val save : t -> string -> unit
(** Write the persisted tier (versioned format, atomic rename). I/O errors
    are swallowed: persistence is best-effort by design. *)

val load : ?capacity:int -> string -> t
(** Load a persisted tier. A missing, unreadable, version-mismatched or
    corrupted file yields an empty (cold) cache — never an exception. *)
