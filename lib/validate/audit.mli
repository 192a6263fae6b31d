(** Engine 1: the witness audit. Every rewrite witness is replayed against
    the independent {!Oracle} partition; claims the oracle cannot justify
    are attacked concretely at the program point where they are made, on
    the instrumented interpreter over the {!Inputs} battery. The dominance
    side conditions read a fresh {!Analysis.Ctx.t} built here, never the
    analyses of the pass being audited. *)

type verdict =
  | Certified  (** justified by the oracle (or vacuous: provably dead) *)
  | Unproven
      (** beyond the oracle and not refuted concretely: a precision win of
          the predicated algorithm, reported as Info *)
  | Rejected of string  (** refuted — a miscompile, with the evidence *)

type outcome = { witness : Witness.t; verdict : verdict }

type report = {
  pass : string;
  func : string;
  total : int;
  certified : int;
  unproven : int;
  rejected : int;
  oracle_rounds : int;
  outcomes : outcome list;
  diagnostics : Check.Diagnostic.t list;
      (** one Error per rejection (check id per witness kind, located at
          the rewritten instr/edge/block), one Info per precision win
          (["validate-precision-win"]) *)
}

val run :
  ?runs:int -> ?seed:int -> ?fuel:int -> pass:string -> Ir.Func.t -> Witness.t list -> report
(** [run ~pass f witnesses] audits the witnesses a pass emitted while
    rewriting [f] (ids in the witnesses refer to [f]). *)

val ok : report -> bool
(** No rejections. *)
