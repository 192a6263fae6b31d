(* Mutable construction of SSA functions, frozen into a {!Func.t} by
   {!finish}. Typical use: create blocks, append instructions, set
   terminators (which creates the CFG edges), then fill in phi arguments
   per incoming edge. *)

type binstr = { ins : Func.instr; blk : int }

type t = {
  name : string;
  nparams : int;
  instrs : binstr Util.Vec.t;
  mutable nblocks : int;
  body : int Util.Vec.t Util.Vec.t; (* non-phi instruction ids per block *)
  phis : int Util.Vec.t Util.Vec.t; (* phi instruction ids per block *)
  term : Func.instr option Util.Vec.t; (* terminator per block *)
  edges : Func.edge Util.Vec.t;
  preds : int Util.Vec.t Util.Vec.t; (* incoming edge ids per block *)
  succs : int Util.Vec.t Util.Vec.t; (* outgoing edge ids per block *)
  phi_args : (int, (int, int) Hashtbl.t) Hashtbl.t; (* phi id -> edge -> value *)
  mutable opaque_counter : int;
  mutable final_ids : int array; (* set by [finish]: builder id -> final id *)
}

let dummy_instr = { ins = Func.Jump; blk = -1 }

let create ~name ~nparams =
  let t =
    {
      name;
      nparams;
      instrs = Util.Vec.create ~dummy:dummy_instr;
      nblocks = 0;
      body = Util.Vec.create ~dummy:(Util.Vec.create ~dummy:0);
      phis = Util.Vec.create ~dummy:(Util.Vec.create ~dummy:0);
      term = Util.Vec.create ~dummy:None;
      edges = Util.Vec.create ~dummy:{ Func.src = -1; dst = -1; src_ix = -1; dst_ix = -1 };
      preds = Util.Vec.create ~dummy:(Util.Vec.create ~dummy:0);
      succs = Util.Vec.create ~dummy:(Util.Vec.create ~dummy:0);
      phi_args = Hashtbl.create 16;
      opaque_counter = 0;
      final_ids = [||];
    }
  in
  t

let add_block t =
  let b = t.nblocks in
  t.nblocks <- b + 1;
  Util.Vec.push t.body (Util.Vec.create ~dummy:(-1));
  Util.Vec.push t.phis (Util.Vec.create ~dummy:(-1));
  Util.Vec.push t.term None;
  Util.Vec.push t.preds (Util.Vec.create ~dummy:(-1));
  Util.Vec.push t.succs (Util.Vec.create ~dummy:(-1));
  b

let new_instr t blk ins =
  let id = Util.Vec.length t.instrs in
  Util.Vec.push t.instrs { ins; blk };
  id

let append t blk ins =
  let id = new_instr t blk ins in
  Util.Vec.push (Util.Vec.get t.body blk) id;
  id

let const t blk n = append t blk (Func.Const n)
let param t blk k = append t blk (Func.Param k)
let unop t blk op a = append t blk (Func.Unop (op, a))
let binop t blk op a b = append t blk (Func.Binop (op, a, b))
let cmp t blk op a b = append t blk (Func.Cmp (op, a, b))

let instr t blk ins =
  if Func.is_phi ins || not (Func.defines_value ins) then
    invalid_arg "Builder.instr: not a non-phi value instruction";
  append t blk ins

let opaque ?tag t blk args =
  let tag =
    match tag with
    | Some tag -> tag
    | None ->
        let tag = t.opaque_counter in
        t.opaque_counter <- tag + 1;
        tag
  in
  append t blk (Func.Opaque (tag, Array.of_list args))

(* A phi with arguments to be supplied later via {!set_phi_arg}. *)
let phi t blk =
  let id = new_instr t blk (Func.Phi [||]) in
  Util.Vec.push (Util.Vec.get t.phis blk) id;
  Hashtbl.replace t.phi_args id (Hashtbl.create 4);
  id

let set_phi_arg t ~phi ~edge v =
  match Hashtbl.find_opt t.phi_args phi with
  | None -> invalid_arg "Builder.set_phi_arg: not a phi"
  | Some tbl -> Hashtbl.replace tbl edge v

let add_edge t src dst =
  let e = Util.Vec.length t.edges in
  let src_ix = Util.Vec.length (Util.Vec.get t.succs src) in
  let dst_ix = Util.Vec.length (Util.Vec.get t.preds dst) in
  Util.Vec.push t.edges { Func.src; dst; src_ix; dst_ix };
  Util.Vec.push (Util.Vec.get t.succs src) e;
  Util.Vec.push (Util.Vec.get t.preds dst) e;
  e

let set_term t blk ins =
  if Util.Vec.get t.term blk <> None then
    invalid_arg (Printf.sprintf "Builder: block %d already terminated" blk);
  Util.Vec.set t.term blk (Some ins)

(* Terminators return the created edge ids, for phi argument wiring. *)
let jump t blk ~dst =
  set_term t blk Func.Jump;
  add_edge t blk dst

let branch t blk cond ~ift ~iff =
  set_term t blk (Func.Branch cond);
  let et = add_edge t blk ift in
  let ef = add_edge t blk iff in
  (et, ef)

let ret t blk v = set_term t blk (Func.Return v)

(* [switch t blk v ~cases ~default]: one edge per case (in order), then the
   default edge; returns (case edge ids, default edge id). *)
let switch t blk v ~cases ~default =
  set_term t blk (Func.Switch (v, Array.of_list (List.map fst cases)));
  let case_edges = List.map (fun (_, dst) -> add_edge t blk dst) cases in
  let default_edge = add_edge t blk default in
  (case_edges, default_edge)

let finish t : Func.t =
  let nblocks = t.nblocks in
  (* Assign final instruction ids block by block in layout order so that ids
     grow along the block list: phis, then body, then terminator. *)
  let order = Util.Vec.create ~dummy:(-1) in
  let term_ids = Array.make nblocks (-1) in
  for b = 0 to nblocks - 1 do
    Util.Vec.iter (fun i -> Util.Vec.push order i) (Util.Vec.get t.phis b);
    Util.Vec.iter (fun i -> Util.Vec.push order i) (Util.Vec.get t.body b);
    match Util.Vec.get t.term b with
    | None -> invalid_arg (Printf.sprintf "Builder: block %d not terminated" b)
    | Some ins ->
        let id = new_instr t b ins in
        term_ids.(b) <- id;
        Util.Vec.push order id
  done;
  let n = Util.Vec.length order in
  let remap = Array.make (Util.Vec.length t.instrs) (-1) in
  Util.Vec.iteri (fun final old -> remap.(old) <- final) order;
  t.final_ids <- remap;
  let map_value ctx v =
    if v < 0 || v >= Array.length remap || remap.(v) < 0 then
      invalid_arg (Printf.sprintf "Builder: %s references unknown value %d" ctx v);
    remap.(v)
  in
  let preds_arr = Array.init nblocks (fun b -> Util.Vec.to_array (Util.Vec.get t.preds b)) in
  let map_instr old_id ins blk =
    match (ins : Func.instr) with
    | Const _ | Param _ | Jump -> ins
    | Unop (op, a) -> Unop (op, map_value "unop" a)
    | Binop (op, a, b) -> Binop (op, map_value "binop" a, map_value "binop" b)
    | Cmp (op, a, b) -> Cmp (op, map_value "cmp" a, map_value "cmp" b)
    | Opaque (tag, args) -> Opaque (tag, Array.map (map_value "opaque") args)
    | Branch a -> Branch (map_value "branch" a)
    | Switch (a, cases) -> Switch (map_value "switch" a, cases)
    | Return a -> Return (map_value "return" a)
    | Phi _ ->
        let tbl = Hashtbl.find t.phi_args old_id in
        let args =
          Array.map
            (fun e ->
              match Hashtbl.find_opt tbl e with
              | Some v -> map_value "phi" v
              | None ->
                  invalid_arg
                    (Printf.sprintf "Builder: phi %d missing argument for edge %d in block %d"
                       old_id e blk))
            preds_arr.(blk)
        in
        Phi args
  in
  let instrs = Array.make n Func.Jump in
  let instr_block = Array.make n (-1) in
  Util.Vec.iteri
    (fun final old ->
      let { ins; blk } = Util.Vec.get t.instrs old in
      instrs.(final) <- map_instr old ins blk;
      instr_block.(final) <- blk)
    order;
  let blocks =
    Array.init nblocks (fun b ->
        let ids = Util.Vec.create ~dummy:(-1) in
        Util.Vec.iter (fun i -> Util.Vec.push ids remap.(i)) (Util.Vec.get t.phis b);
        Util.Vec.iter (fun i -> Util.Vec.push ids remap.(i)) (Util.Vec.get t.body b);
        Util.Vec.push ids remap.(term_ids.(b));
        {
          Func.instrs = Util.Vec.to_array ids;
          preds = preds_arr.(b);
          succs = Util.Vec.to_array (Util.Vec.get t.succs b);
        })
  in
  Func.validate
    {
      Func.name = t.name;
      nparams = t.nparams;
      blocks;
      instrs;
      instr_block;
      edges = Util.Vec.to_array t.edges;
    }

(* [finish] lays instructions out block by block, renumbering them; this
   maps an id handed out during construction to the id in the finished
   function. Only valid after [finish]. *)
let final_value t v =
  if Array.length t.final_ids = 0 then invalid_arg "Builder.final_value: before finish";
  t.final_ids.(v)
