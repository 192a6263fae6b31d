(* Human-readable dump of SSA functions, in the style of the paper's
   Figure 2: values are written [vN] where N is the defining instruction id.
   The text is built by Buffer appends; the Format printers are adapters
   that print each line's text, then force a newline. *)

let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n = if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)

let add_value b v =
  Buffer.add_char b 'v';
  add_nat b v

let add_label b blk =
  Buffer.add_char b 'b';
  add_nat b blk

let add_sep b k sep = if k > 0 then Buffer.add_string b sep

let add_infix b x op y =
  add_value b x;
  Buffer.add_char b ' ';
  Buffer.add_string b op;
  Buffer.add_char b ' ';
  add_value b y

(* The block reached by the [k]-th successor edge of [i]'s block. *)
let succ_dst f i k = (Func.edge f (Func.block f (Func.block_of_instr f i)).succs.(k)).dst

let add_instr f b i =
  let ins = Func.instr f i in
  if Func.defines_value ins then begin
    add_value b i;
    Buffer.add_string b " = "
  end;
  match ins with
  | Const n ->
      Buffer.add_string b "const ";
      add_int b n
  | Param k ->
      Buffer.add_string b "param ";
      add_int b k
  | Unop (op, a) ->
      Buffer.add_string b (Types.string_of_unop op);
      add_value b a
  | Binop (op, x, y) -> add_infix b x (Types.string_of_binop op) y
  | Cmp (op, x, y) -> add_infix b x (Types.string_of_cmp op) y
  | Opaque (tag, args) ->
      Buffer.add_string b "opaque#";
      add_int b tag;
      Buffer.add_char b '(';
      Array.iteri
        (fun k v ->
          add_sep b k ", ";
          add_value b v)
        args;
      Buffer.add_char b ')'
  | Phi args ->
      let preds = (Func.block f (Func.block_of_instr f i)).preds in
      Buffer.add_string b "phi(";
      Array.iteri
        (fun k v ->
          add_sep b k ", ";
          add_label b (Func.edge f preds.(k)).src;
          Buffer.add_string b ": ";
          add_value b v)
        args;
      Buffer.add_char b ')'
  | Jump ->
      Buffer.add_string b "jump ";
      add_label b (succ_dst f i 0)
  | Branch c ->
      Buffer.add_string b "branch ";
      add_value b c;
      Buffer.add_string b ", ";
      add_label b (succ_dst f i 0);
      Buffer.add_string b ", ";
      add_label b (succ_dst f i 1)
  | Switch (c, cases) ->
      Buffer.add_string b "switch ";
      add_value b c;
      Buffer.add_string b " [";
      Array.iteri
        (fun k n ->
          add_sep b k "; ";
          add_int b n;
          Buffer.add_string b ": ";
          add_label b (succ_dst f i k))
        cases;
      Buffer.add_string b "] default ";
      add_label b (succ_dst f i (Array.length cases))
  | Return v ->
      Buffer.add_string b "return ";
      add_value b v

(* The block's lines; [eol ()] ends each one. *)
let add_block f b ~eol blk =
  let { Func.instrs; preds; _ } = Func.block f blk in
  add_label b blk;
  Buffer.add_char b ':';
  if Array.length preds > 0 then begin
    Buffer.add_string b "  ; preds:";
    Array.iter
      (fun e ->
        Buffer.add_char b ' ';
        add_label b (Func.edge f e).src)
      preds
  end;
  eol ();
  Array.iter
    (fun i ->
      Buffer.add_string b "  ";
      add_instr f b i;
      eol ())
    instrs

let add_func b ~eol f =
  Printf.bprintf b "function %s(%d params), %d blocks, %d instrs" f.Func.name f.Func.nparams
    (Func.num_blocks f) (Func.num_instrs f);
  eol ();
  for blk = 0 to Func.num_blocks f - 1 do
    add_block f b ~eol blk
  done

let to_string f =
  let b = Buffer.create (32 * (Func.num_instrs f + Func.num_blocks f + 1)) in
  add_func b ~eol:(fun () -> Buffer.add_char b '\n') f;
  Buffer.contents b

(* Runs [add b ~eol x] with an [eol] that prints the line to [ppf] and
   breaks it with [Format.pp_force_newline], so the text indents like any
   other forced break inside the caller's box. *)
let formatted add ppf x =
  let b = Buffer.create 128 in
  let eol () =
    Format.pp_print_string ppf (Buffer.contents b);
    Format.pp_force_newline ppf ();
    Buffer.clear b
  in
  add b ~eol x

let pp_instr f ppf i =
  let b = Buffer.create 32 in
  add_instr f b i;
  Format.pp_print_string ppf (Buffer.contents b)

let pp_block f ppf blk = formatted (add_block f) ppf blk
let pp ppf f = formatted add_func ppf f
