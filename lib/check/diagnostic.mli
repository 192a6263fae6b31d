(** Structured diagnostics produced by the IR verifier and linter.

    A diagnostic carries a severity, a stable check id (e.g.
    ["ssa-dominance"]), a location inside the function, and a human-readable
    message. Checkers never raise: they return lists of these. *)

type severity =
  | Error  (** the IR invariant is broken; downstream passes are unsound *)
  | Warning  (** suspicious but semantically tolerable *)
  | Info  (** a report, e.g. a critical edge *)

type loc =
  | Func  (** the function as a whole *)
  | Block of int
  | Instr of int  (** an instruction / value id *)
  | Edge of int  (** a CFG edge id *)

type t = { severity : severity; check : string; loc : loc; message : string }

val error : check:string -> loc:loc -> ('a, unit, string, t) format4 -> 'a
val warning : check:string -> loc:loc -> ('a, unit, string, t) format4 -> 'a
val info : check:string -> loc:loc -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

val compare : t -> t -> int
(** Errors before warnings before infos; then check id, then location. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
