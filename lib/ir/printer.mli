(** Human-readable dumps of SSA functions: values print as [vN] where [N]
    is the defining instruction id, in the style of the paper's Figure 2.

    {!to_string} builds the text with [Buffer] appends. The [Format]
    printers print the same text: each line as one string, each line break
    as [Format.pp_force_newline], so inside a caller's box a dump indents
    like any other forced break. *)

val pp_instr : Func.t -> Format.formatter -> int -> unit
(** One instruction, without indentation or line break. *)

val pp_block : Func.t -> Format.formatter -> int -> unit
(** The block's header line, then its instructions indented by two
    spaces; every line ends with a break. *)

val pp : Format.formatter -> Func.t -> unit
(** The function's header line, then every block. *)

val to_string : Func.t -> string
(** [pp] into a string: lines end with ['\n']. *)
