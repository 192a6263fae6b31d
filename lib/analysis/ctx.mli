(** One routine's control-flow analyses: its block graph, RPO numbering,
    dominator tree, postdominator tree and loop-nesting forest, each
    computed on first use and kept. A context belongs to the one
    {!Ir.Func.t} it was created from: every accessor takes the function it
    is asked about and raises [Invalid_argument] unless that function is
    physically the context's own ([==]), so a context never answers for a
    rewritten copy.

    A context lives inside one routine's compile on one domain. It is
    plain mutable state with no locking; nothing shares contexts across
    routines or domains.

    Certifiers ({!Check.Schedule}, {!Check.Ssa_check}, {!Validate.Audit},
    {!Absint.Crosscheck}) build a fresh context of their own and never take
    one from the code they judge. *)

type t

val create : Ir.Func.t -> t
(** An empty context for the function: nothing is computed yet. *)

val get : ?ctx:t -> Ir.Func.t -> t
(** [get ?ctx f] is [ctx] when given, else a fresh context for [f].
    @raise Invalid_argument when [ctx] belongs to another function. *)

val graph : t -> Ir.Func.t -> Graph.t
(** {!Graph.of_func}. *)

val rpo : t -> Ir.Func.t -> Rpo.t
(** {!Rpo.compute} over {!graph}. *)

val dom : t -> Ir.Func.t -> Dom.t
(** {!Dom.compute} over {!graph}, numbered by {!rpo}. *)

val postdom : t -> Ir.Func.t -> Postdom.t
(** {!Postdom.compute} over {!graph}. *)

val loops : t -> Ir.Func.t -> Loops.forest
(** {!Loops.forest} over {!graph}, with {!rpo} and {!dom}. *)
