(* A reference interpreter for SSA functions. It is the ground-truth oracle
   used by the test suite: optimization must not change the observable result
   of any execution. *)

type result =
  | Ret of int
  | Trap (* division/remainder by zero, or the min_int / -1 overflow *)
  | Timeout (* fuel exhausted *)

let equal_result a b =
  match (a, b) with
  | Ret x, Ret y -> x = y
  | Trap, Trap | Timeout, Timeout -> true
  | (Ret _ | Trap | Timeout), _ -> false

let pp_result ppf = function
  | Ret n -> Fmt.pf ppf "ret %d" n
  | Trap -> Fmt.string ppf "trap"
  | Timeout -> Fmt.string ppf "timeout"

(* Opaque instructions are uninterpreted pure functions: any deterministic
   function of (tag, args) is a valid model. We use a 64-bit mix so results
   look adversarial to the optimizer. [opaque_env tag env ix] is the model
   of the arguments [env.(ix.(k))], mixed where they are, so the loop need
   not copy them into an array. *)
let mix h x =
  let open Int64 in
  let h = mul (logxor h (of_int x)) 0x100000001B3L in
  logxor h (shift_right_logical h 29)
[@@inline]

let opaque_env tag (env : int array) (ix : int array) =
  let h = ref (mix 0xCBF29CE484222325L tag) in
  for k = 0 to Array.length ix - 1 do
    h := mix !h env.(ix.(k))
  done;
  Int64.to_int (Int64.shift_right_logical !h 3)

let opaque_model tag args = opaque_env tag args (Array.init (Array.length args) Fun.id)

type trace = { mutable steps : int; mutable blocks_visited : int }

(* The successor a switch on [x] takes: the last case equal to [x] (cases
   are distinct in a valid function), else the default. *)
let switch_index cases x =
  let rec find k = if k < 0 || cases.(k) = x then k else find (k - 1) in
  let k = find (Array.length cases - 1) in
  if k < 0 then Array.length cases else k

(* The one execution loop behind every entry point. [env.(i)] receives
   each value as instruction [i] defines it. A block entry fires
   [on_block], reads the φ prefix's incoming values into [scratch] (the
   parallel copy), then commits them, each with its [on_def]. Every
   instruction, φs included, then costs one unit of fuel and one trace
   step. The incoming edge travels as its [dst_ix], [-1] at the entry, so
   nothing is allocated per block or per instruction. *)
let exec ~fuel ~trace ~on_def ~on_edge ~on_block (f : Func.t) args env =
  let fuel = ref fuel and scratch = ref [||] in
  let rec enter b ix =
    on_block b;
    (match trace with Some t -> t.blocks_visited <- t.blocks_visited + 1 | None -> ());
    let blk = Func.block f b in
    for k = 0 to read_phis blk.Func.instrs ix 0 - 1 do
      let p = blk.Func.instrs.(k) and v = !scratch.(k) in
      env.(p) <- v;
      on_def p v
    done;
    if Array.length blk.Func.instrs = 0 then invalid_arg "Interp: empty block" else step blk 0
  and read_phis instrs ix k =
    if k = Array.length instrs then k
    else
      match Func.instr f instrs.(k) with
      | Func.Phi pargs ->
          if ix < 0 then invalid_arg "Interp: phi in entry block";
          if k = Array.length !scratch then begin
            let grown = Array.make (2 * k + 8) 0 in
            Array.blit !scratch 0 grown 0 k;
            scratch := grown
          end;
          !scratch.(k) <- env.(pargs.(ix));
          read_phis instrs ix (k + 1)
      | _ -> k
  and take blk k =
    let e = blk.Func.succs.(k) in
    on_edge e;
    let { Func.dst; dst_ix; _ } = Func.edge f e in
    enter dst dst_ix
  and def blk pos i v =
    env.(i) <- v;
    on_def i v;
    step blk (pos + 1)
  and step blk pos =
    if !fuel <= 0 then Timeout
    else begin
      decr fuel;
      (match trace with Some t -> t.steps <- t.steps + 1 | None -> ());
      let i = blk.Func.instrs.(pos) in
      match Func.instr f i with
      | Func.Jump -> take blk 0
      | Func.Branch c -> take blk (if env.(c) <> 0 then 0 else 1)
      | Func.Switch (c, cases) -> take blk (switch_index cases env.(c))
      | Func.Return v -> Ret env.(v)
      | Func.Phi _ -> step blk (pos + 1) (* committed at block entry *)
      | Func.Const n -> def blk pos i n
      | Func.Param k -> def blk pos i (if k < Array.length args then args.(k) else 0)
      | Func.Unop (op, a) -> def blk pos i (Types.eval_unop op env.(a))
      | Func.Binop (op, a, c) ->
          if Types.binop_can_trap op env.(a) env.(c) then Trap
          else def blk pos i (Types.eval_binop op env.(a) env.(c))
      | Func.Cmp (op, a, c) -> def blk pos i (Types.eval_cmp op env.(a) env.(c))
      | Func.Opaque (tag, oargs) -> def blk pos i (opaque_env tag env oargs)
    end
  in
  enter Func.entry (-1)

let no_def (_ : int) (_ : int) = ()

(* Runs [f] on [args]; [fuel] bounds the number of executed instructions so
   that non-terminating loops produce [Timeout]. *)
let run ?(fuel = 100_000) ?trace (f : Func.t) (args : int array) : result =
  exec ~fuel ~trace ~on_def:no_def ~on_edge:ignore ~on_block:ignore f args
    (Array.make (Func.num_instrs f) 0)

(* Runs [f] with observation hooks: [on_def i v] fires each time
   instruction [i] defines value [v] (φs fire at block entry, as the
   parallel copy commits), [on_edge] on each traversed CFG edge, [on_block]
   on each block entry. The translation validator uses this to refute
   witness claims at the program point where they are made. *)
let run_instrumented ?(fuel = 100_000) ?(on_def = no_def) ?(on_edge = ignore)
    ?(on_block = ignore) (f : Func.t) (args : int array) : result =
  exec ~fuel ~trace:None ~on_def ~on_edge ~on_block f args (Array.make (Func.num_instrs f) 0)

(* Runs [f] and also records the value each instruction last computed;
   used to check that GVN-congruent values really agree at run time. *)
let run_with_env ?(fuel = 100_000) f args =
  let env = Array.make (Func.num_instrs f) 0 in
  let executed = Array.make (Func.num_instrs f) false in
  let result =
    exec ~fuel ~trace:None ~on_def:(fun i _ -> executed.(i) <- true) ~on_edge:ignore
      ~on_block:ignore f args env
  in
  (result, Array.mapi (fun i ran -> if ran then Some env.(i) else None) executed)
