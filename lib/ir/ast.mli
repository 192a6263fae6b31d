(** Abstract syntax of mini-C, the small structured language of the
    examples, the test programs and the workload generator. *)

type expr =
  | Enum of int
  | Evar of string
  | Eunop of Types.unop * expr
  | Ebinop of Types.binop * expr * expr
  | Ecmp of Types.cmp * expr * expr
  | Eand of expr * expr  (** short-circuit && (result 0/1) *)
  | Eor of expr * expr  (** short-circuit || (result 0/1) *)
  | Ecall of string * expr list  (** opaque call; tag derived from the name *)

type stmt =
  | Sassign of string * expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sswitch of expr * (int * stmt list) list * stmt list
      (** scrutinee, cases (no fall-through), default body *)
  | Sbreak
  | Scontinue
  | Sreturn of expr

type routine = { name : string; params : string list; body : stmt list }

val pp_routine : Format.formatter -> routine -> unit
(** Prints re-parsable mini-C source. *)
