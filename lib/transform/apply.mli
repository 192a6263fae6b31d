(** Consume a GVN result: rebuild the function with unreachable blocks and
    edges removed, decided branches and switches simplified, values
    congruent to constants replaced by those constants, and redundant
    computations replaced by their class leader when the leader's
    definition dominates them. *)

val rebuild : Pgvn.State.t -> Ir.Func.t -> Ir.Func.t
(** Rebuild under the analysis' facts. The result is validated; semantics
    are preserved on every execution. *)

val rebuild_witnessed : Pgvn.State.t -> Ir.Func.t -> Ir.Func.t * Validate.Witness.t list
(** Like {!rebuild}, also returning the audit trail: one witness per
    rewrite decision (constant fold, leader replacement, φ collapse,
    dropped edge or block), in the {e input} function's instruction, edge
    and block ids, ready for {!Validate.Audit.run}. Dominators and RPO are
    read from the state.
    @raise Invalid_argument unless the function is the state's own
    ([st.f], compared physically). *)

val optimize : ?config:Pgvn.Config.t -> Ir.Func.t -> Ir.Func.t
(** [run] + [rebuild] in one step (default config: {!Pgvn.Config.full}). *)
