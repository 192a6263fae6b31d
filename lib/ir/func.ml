(* The SSA intermediate representation.

   A function is frozen after construction (see {!Builder}): analyses compute
   side tables and transformations build a fresh function, so instruction ids,
   block ids and edge ids stay stable for the lifetime of a [t].

   Conventions:
   - an instruction id doubles as the id of the value it defines;
   - block 0 is the entry block;
   - a block's instruction list holds phis first and exactly one terminator
     last;
   - [Phi args]: [args.(i)] is the value carried by the block's [preds.(i)]
     edge;
   - a [Branch] block has [succs.(0)] as its true edge and [succs.(1)] as its
     false edge. *)

type value = int

type instr =
  | Const of int
  | Param of int
  | Unop of Types.unop * value
  | Binop of Types.binop * value * value
  | Cmp of Types.cmp * value * value
  | Opaque of int * value array
      (* uninterpreted pure function [tag](args): models calls and other
         operations GVN must treat as black boxes (but may still congruence
         on identical tags and congruent arguments) *)
  | Phi of value array
  | Jump
  | Branch of value
  | Switch of value * int array
      (* [Switch (v, cases)]: the block has [Array.length cases + 1]
         outgoing edges; edge i takes when v = cases.(i), the last edge is
         the default. Case constants are distinct. *)
  | Return of value

type edge = { src : int; dst : int; src_ix : int; dst_ix : int }

type block = { instrs : int array; preds : int array; succs : int array }

type t = {
  name : string;
  nparams : int;
  blocks : block array;
  instrs : instr array;
  instr_block : int array;
  edges : edge array;
}

let entry = 0
let num_blocks f = Array.length f.blocks
let num_instrs f = Array.length f.instrs
let num_edges f = Array.length f.edges
let block f b = f.blocks.(b)
let instr f i = f.instrs.(i)
let edge f e = f.edges.(e)
let block_of_instr f i = f.instr_block.(i)

let defines_value = function
  | Const _ | Param _ | Unop _ | Binop _ | Cmp _ | Opaque _ | Phi _ -> true
  | Jump | Branch _ | Switch _ | Return _ -> false

let is_phi = function Phi _ -> true | _ -> false
let is_terminator = function Jump | Branch _ | Switch _ | Return _ -> true | _ -> false

let terminator_of_block f b =
  let instrs = f.blocks.(b).instrs in
  instrs.(Array.length instrs - 1)

(* Operands in order; phi operands follow the block's pred-edge order. *)
let operands = function
  | Const _ | Param _ | Jump -> [||]
  | Unop (_, a) | Branch a | Switch (a, _) | Return a -> [| a |]
  | Binop (_, a, b) | Cmp (_, a, b) -> [| a; b |]
  | Opaque (_, args) -> Array.copy args
  | Phi args -> Array.copy args

let iter_operands g = function
  | Const _ | Param _ | Jump -> ()
  | Unop (_, a) | Branch a | Switch (a, _) | Return a -> g a
  | Binop (_, a, b) | Cmp (_, a, b) ->
      g a;
      g b
  | Opaque (_, args) | Phi args -> Array.iter g args

(* Def-use chains, flat: the users of value [v] are
   [users.(offsets.(v)) .. users.(offsets.(v + 1) - 1)], in instruction
   order, one entry per operand slot. *)
type def_use = { offsets : int array; users : int array }

let def_use ?(keep = fun _ -> true) f =
  let ni = num_instrs f in
  (* Count each value's uses into [offsets.(v)], make that the end of its
     range, then fill users last first, moving each end back to the
     range's start. *)
  let offsets = Array.make (ni + 1) 0 in
  let count v = offsets.(v) <- offsets.(v) + 1 in
  for i = 0 to ni - 1 do
    if keep i then iter_operands count f.instrs.(i)
  done;
  for v = 1 to ni do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  let users = Array.make offsets.(ni) 0 in
  let user = ref 0 in
  let add v =
    offsets.(v) <- offsets.(v) - 1;
    users.(offsets.(v)) <- !user
  in
  for i = ni - 1 downto 0 do
    if keep i then begin
      user := i;
      iter_operands add f.instrs.(i)
    end
  done;
  { offsets; users }

let iter_users du v g =
  for k = du.offsets.(v) to du.offsets.(v + 1) - 1 do
    g du.users.(k)
  done

(* Block-level successor/predecessor arrays, for the CFG analyses. *)
let succ_blocks f =
  Array.map (fun b -> Array.map (fun e -> f.edges.(e).dst) b.succs) f.blocks

let phis_of_block f b =
  let instrs = f.blocks.(b).instrs in
  let rec count i =
    if i < Array.length instrs && is_phi f.instrs.(instrs.(i)) then count (i + 1) else i
  in
  Array.sub instrs 0 (count 0)

(* Structural well-formedness; raises [Failure] with a diagnostic. *)
let validate f =
  let fail fmt = Printf.ksprintf failwith fmt in
  let nb = num_blocks f and ni = num_instrs f and ne = num_edges f in
  if nb = 0 then fail "function %s has no blocks" f.name;
  let check_value i v =
    if v < 0 || v >= ni then fail "instr %d: value %d out of range" i v;
    if not (defines_value f.instrs.(v)) then fail "instr %d: operand %d defines no value" i v
  in
  Array.iteri
    (fun e { src; dst; src_ix; dst_ix } ->
      if src < 0 || src >= nb || dst < 0 || dst >= nb then fail "edge %d endpoints" e;
      if f.blocks.(src).succs.(src_ix) <> e then fail "edge %d src_ix mismatch" e;
      if f.blocks.(dst).preds.(dst_ix) <> e then fail "edge %d dst_ix mismatch" e)
    f.edges;
  if Array.length f.blocks.(entry).preds <> 0 then fail "entry block has predecessors";
  Array.iteri
    (fun b (blk : block) ->
      let n = Array.length blk.instrs in
      if n = 0 then fail "block %d empty" b;
      let seen_nonphi = ref false in
      Array.iteri
        (fun pos i ->
          if i < 0 || i >= ni then fail "block %d: instr id %d out of range" b i;
          if f.instr_block.(i) <> b then fail "instr %d: wrong instr_block" i;
          let ins = f.instrs.(i) in
          if is_terminator ins && pos <> n - 1 then fail "block %d: terminator not last" b;
          if pos = n - 1 && not (is_terminator ins) then fail "block %d: no terminator" b;
          (match ins with
          | Phi args ->
              if !seen_nonphi then fail "block %d: phi %d after non-phi" b i;
              if Array.length args <> Array.length blk.preds then
                fail "phi %d: %d args for %d preds" i (Array.length args)
                  (Array.length blk.preds)
          | _ -> seen_nonphi := true);
          iter_operands (check_value i) ins;
          match ins with
          | Jump ->
              if Array.length blk.succs <> 1 then fail "block %d: jump succs" b
          | Branch _ ->
              if Array.length blk.succs <> 2 then fail "block %d: branch succs" b
          | Switch (_, cases) ->
              if Array.length blk.succs <> Array.length cases + 1 then
                fail "block %d: switch succs" b;
              let sorted = Array.copy cases in
              Array.sort compare sorted;
              for k = 1 to Array.length sorted - 1 do
                if sorted.(k) = sorted.(k - 1) then fail "block %d: duplicate switch case" b
              done
          | Return _ ->
              if Array.length blk.succs <> 0 then fail "block %d: return succs" b
          | _ -> ())
        blk.instrs;
      Array.iter (fun e -> if e < 0 || e >= ne then fail "block %d: edge id" b) blk.preds;
      Array.iter (fun e -> if e < 0 || e >= ne then fail "block %d: edge id" b) blk.succs)
    f.blocks;
  f
