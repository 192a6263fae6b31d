(** Content-addressed result cache for the compilation service: a routine
    is compiled once and answered from cache thereafter, keyed by the
    routine as the client holds it plus a fingerprint of every flag the
    result depends on.

    {2 Keys}

    A {!key} is the pair of a 63-bit hash and the bytes it was computed
    from: a version line, the length-prefixed fingerprint, then the
    [Marshal] image of the keyed value (without sharing, so equal values
    give equal bytes). [gvnopt] keys on the parsed [Ir.Ast.routine], before
    any lowering or SSA construction, so a hit costs one marshal, one hash
    and one lookup. The key is exact, not canonical: routines that differ
    in anything the value holds — block layout, variable names — key
    apart. Lookups are verify-on-hit: the stored key bytes are compared in
    full before an entry is answered, so a hash collision degrades to a
    miss, never to a wrong answer.

    Results are opaque strings chosen by the client (the driver caches the
    routine's full rendered output plus its failure bit). The result must
    be a function of the keyed value and the fingerprint: pass an encoding
    of every configuration bit it depends on as [key_of ~fingerprint].

    {2 Tiers}

    The in-memory tier is a stdlib [Hashtbl.Make] table behind one mutex,
    safe for concurrent pool workers. It hashes a key by [khash] and
    compares keys by their full [kcanon] bytes, so the table's own
    equality is the verify-on-hit check. It holds at most [capacity]
    entries; a queue of resident keys, oldest first, picks the entry to
    evict, and overwriting an entry keeps its place in that queue. The
    optional persisted tier is a versioned file ({!save} / {!load}),
    written oldest entry first; a missing, truncated or corrupted file
    loads as a cold cache — persistence failures can cost a recompile,
    never an error.
    [Marshal] images follow the OCaml type of the keyed value, so a change
    to that type (for [gvnopt], [Ir.Ast]) must bump the key's version line.

    Hit/miss/eviction totals are exposed as {!stats} and, when an [?obs]
    context is supplied, as the [ccache.hits] / [ccache.misses] /
    [ccache.evictions] counters. *)

type key = { khash : int; kcanon : string }

val key_of : ?fingerprint:string -> 'a -> key
(** The key of a value. The value must be plain data: closure-free
    ([Marshal] raises on a closure) and acyclic (without sharing, a cycle
    never terminates). [fingerprint] (default [""]) is folded into the key
    bytes — pass an encoding of every configuration bit the cached result
    depends on. *)

val fnv1a : string -> int
(** The 64-bit FNV-1a hash [key_of] applies to the key bytes, folded to a
    nonnegative [int]. Persisted files store it, so it must not change. *)

type t

type stats = { entries : int; hits : int; misses : int; evictions : int }

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entry count (default 4096, clamped to >= 1);
    inserting past it evicts oldest-first. *)

val find : ?obs:Obs.t -> t -> key -> string option
(** Verify-on-hit lookup: [Some] only when an entry's key bytes match
    [key.kcanon] exactly. Counts one hit or one miss. *)

val add : ?obs:Obs.t -> t -> key -> string -> unit
(** Insert (or overwrite) the result for [key], evicting the oldest entry
    when over capacity. *)

val stats : t -> stats

val save : t -> string -> unit
(** Write the persisted tier (versioned format, atomic rename). I/O errors
    are swallowed: persistence is best-effort by design. *)

val load : ?capacity:int -> string -> t
(** Load a persisted tier. Entries are re-added oldest first, so a file
    with more than [capacity] entries keeps its newest ones, and later
    evictions follow the saved order. A missing, unreadable,
    version-mismatched or corrupted file yields an empty (cold) cache —
    never an exception. *)
