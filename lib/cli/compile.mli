(** gvnopt's compile path: everything between source text and rendered
    text plus a status, shared by batch mode and [--serve].

    Every routine is answered from a content-addressed result cache keyed
    by the parsed routine plus a fingerprint of every option the output
    depends on, so a hit skips lowering and SSA; misses run the full
    check/validate/crosscheck machinery and populate the cache. Routine
    outputs are rendered into per-routine buffers and concatenated in
    input order, and each routine's {!Obs} context is merged in input
    order, so sequential and parallel runs are byte-identical.

    A status is [0] clean, [1] diagnostics at or above the failure
    threshold, [2] a parse error or an internal error in one routine. *)

(** {1 Options} *)

(** [--analyze] modes: which analysis's per-def facts to dump. [Aall]
    also runs the static cross-checker over the GVN run. *)
type analyze_mode = Agvn | Aconst | Arange | Aall

(** [--schedule] modes, run on the input SSA; nothing is rewritten.
    [Scheck] verifies the identity placement with the independent
    legality checker. *)
type schedule_mode = Sdump | Scheck | Slint

(** [--pred] modes: each enables the multi-fact implication closure and
    cross-checks its verdicts against the interval analysis and the
    single-fact walk; dump adds the per-block dominating facts, stats the
    closure counters. *)
type pred_mode = Pcheck | Pdump | Pstats

(** [--gcm] modes: [Gcheck] also diffs observable behavior across the
    motion; [Gdump] prints every move. Both certify the placement before
    rewriting. *)
type gcm_mode = Gcheck | Gdump

type action = Optimize | Analyze of analyze_mode | Schedule of schedule_mode | Pred of pred_mode

(** Everything a routine's compilation depends on. The cache key's
    fingerprint is the [Marshal] image of this record, so a field added
    here separates keys too, and the field order is part of every
    persisted cache's keys. *)
type opts = {
  config : Pgvn.Config.t;
  pruning : Ssa.Construct.pruning;
  action : action;
  stats : bool;
  dump_input : bool;
  run_args : int array option;
  check : bool;
  lint : bool;
  werror : bool;
  validate : Validate.mode option;
  gcm : gcm_mode option;
}

(** {1 Requests} *)

val compile_routines :
  opts:opts ->
  pool:Par.Pool.t ->
  cache:Par.Ccache.t ->
  obs:Obs.t option ->
  Ir.Ast.routine list ->
  int * string
(** Compile each routine on the pool, answering from [cache] when its key
    is known: a cached value stores the status digit, then the exact
    text, so a hit is byte-identical to a fresh run. With [obs], each
    routine gets a private context, merged into [obs] in input order; the
    texts are concatenated in input order. Returns the worst status and
    the text.

    An exception from one routine's lowering, SSA, pipeline or rendering
    ([Out_of_memory] aside, which is re-raised) becomes that routine's
    text, its [=== name ===] header and one [name (internal): exn] line,
    with status [2]; it is not cached, and the other routines are still
    compiled. *)

val request :
  opts:opts ->
  pool:Par.Pool.t ->
  cache:Par.Ccache.t ->
  obs:Obs.t option ->
  path:string ->
  string ->
  (int * string, string) result
(** One source text, read from [path]: parse it (under a [parse] span),
    then {!compile_routines}. A lex or parse error is [Error] with its
    diagnostic, [path:LINE:COL: lex error: msg] (or [parse error]). Batch
    mode calls it per file, [--serve] per frame. *)

(** {1 [--serve]} *)

val serve_frames :
  opts:opts ->
  pool:Par.Pool.t ->
  cache:Par.Ccache.t ->
  obs:Obs.t option ->
  in_channel ->
  out_channel ->
  int
(** The streaming protocol. Framing, both directions: a 4-byte big-endian
    byte count, then that many bytes. A request payload is mini-C source
    (any number of routines); a response payload is the status digit,
    then the text batch mode would print for those routines (or the parse
    error message after status [2]). Requests are answered in order, and
    serving goes on after a failed one. Returns the worst status served:
    EOF on a frame boundary is a clean shutdown; a truncated frame, or a
    length over 64 MiB (refused before the body is read), is a protocol
    error reported on stderr, [2]. *)
