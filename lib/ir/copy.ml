(* The copier the rewriting passes share: old-id maps over a Builder. The
   pass drives the order of the calls; the copier only translates. *)

type t = {
  src : Func.t;
  bld : Builder.t;
  block_map : int array; (* old block -> new block, -1 when dropped *)
  value_map : int array; (* old value -> new value, -1 until bound *)
  alias : int array; (* old value -> old value its uses resolve as, or -1 *)
  edge_map : int array; (* old edge -> new edge, -1 when not built *)
  phis : int Util.Vec.t; (* old φs created, to wire at [finish] *)
  live : bool array option;
  subst : t -> int -> Func.value -> Func.value;
}

let value t v =
  let nv = t.value_map.(v) in
  if nv < 0 then invalid_arg (Printf.sprintf "Copy: v%d used before definition" v);
  nv

let create ?keep ?live ?(subst = fun t _ v -> value t v) (f : Func.t) =
  let bld = Builder.create ~name:f.Func.name ~nparams:f.Func.nparams in
  let nb = Func.num_blocks f and ni = Func.num_instrs f in
  let block_map = Array.make nb (-1) in
  for b = 0 to nb - 1 do
    if match keep with None -> true | Some k -> k.(b) then block_map.(b) <- Builder.add_block bld
  done;
  {
    src = f;
    bld;
    block_map;
    value_map = Array.make ni (-1);
    alias = Array.make ni (-1);
    edge_map = Array.make (Func.num_edges f) (-1);
    phis = Util.Vec.create ~dummy:(-1);
    live;
    subst;
  }

let copied t v = t.value_map.(v) >= 0
let bind t v nv = t.value_map.(v) <- nv
let alias t v a = t.alias.(v) <- a

let rec resolve t use v =
  let a = t.alias.(v) in
  if a >= 0 then resolve t use a else t.subst t use v

let const t ~into n = Builder.const t.bld t.block_map.(into) n

let instr t ~into v =
  let nb = t.block_map.(into) in
  match Func.instr t.src v with
  | Func.Phi _ ->
      t.value_map.(v) <- Builder.phi t.bld nb;
      Util.Vec.push t.phis v
  | ins ->
      let ins : Func.instr =
        match ins with
        | Const _ | Param _ -> ins
        | Unop (op, a) -> Unop (op, resolve t into a)
        | Binop (op, a, b) ->
            let b = resolve t into b in
            Binop (op, resolve t into a, b)
        | Cmp (op, a, b) ->
            let b = resolve t into b in
            Cmp (op, resolve t into a, b)
        | Opaque (tag, args) ->
            let args' = Array.make (Array.length args) (-1) in
            for k = 0 to Array.length args - 1 do
              args'.(k) <- resolve t into args.(k)
            done;
            Opaque (tag, args')
        | Phi _ | Jump | Branch _ | Switch _ | Return _ ->
            invalid_arg (Printf.sprintf "Copy.instr: v%d is a terminator" v)
      in
      t.value_map.(v) <- Builder.instr t.bld nb ins

let is_live t e = match t.live with None -> true | Some l -> l.(e)
let target t e = t.block_map.((Func.edge t.src e).Func.dst)
let jump t nb e = t.edge_map.(e) <- Builder.jump t.bld nb ~dst:(target t e)

(* Old block [b]'s terminator, at the end of the copy of old block [into]. *)
let terminator t ~into b =
  let nb = t.block_map.(into) in
  let succs = (Func.block t.src b).Func.succs in
  match Func.instr t.src (Func.terminator_of_block t.src b) with
  | Func.Jump -> jump t nb succs.(0)
  | Func.Return v -> Builder.ret t.bld nb (resolve t into v)
  | Func.Branch c -> (
      let et = succs.(0) and ef = succs.(1) in
      match (is_live t et, is_live t ef) with
      | true, true ->
          let net, nef =
            Builder.branch t.bld nb (resolve t into c) ~ift:(target t et) ~iff:(target t ef)
          in
          t.edge_map.(et) <- net;
          t.edge_map.(ef) <- nef
      | true, false -> jump t nb et
      | false, true -> jump t nb ef
      | false, false -> invalid_arg "Copy.terminator: branch with no live edge")
  | Func.Switch (c, cases) ->
      let n = Array.length cases in
      let kept = ref [] in
      for ix = n - 1 downto 0 do
        if is_live t succs.(ix) then kept := (cases.(ix), succs.(ix)) :: !kept
      done;
      let kept, default =
        if is_live t succs.(n) then (!kept, succs.(n))
        else
          match List.rev !kept with
          | [] -> invalid_arg "Copy.terminator: switch with no live edge"
          | (_, last) :: rest -> (List.rev rest, last)
      in
      if kept = [] && Option.is_some t.live then jump t nb default
      else begin
        let case_edges, nd =
          Builder.switch t.bld nb (resolve t into c)
            ~cases:(List.map (fun (k, e) -> (k, target t e)) kept)
            ~default:(target t default)
        in
        List.iter2 (fun (_, e) ne -> t.edge_map.(e) <- ne) kept case_edges;
        t.edge_map.(default) <- nd
      end
  | _ -> invalid_arg (Printf.sprintf "Copy.terminator: block %d is not terminated" b)

let finish ?(term_from = Fun.id) t =
  let f = t.src in
  for b = 0 to Func.num_blocks f - 1 do
    if t.block_map.(b) >= 0 then terminator t ~into:b (term_from b)
  done;
  for k = Util.Vec.length t.phis - 1 downto 0 do
    let v = Util.Vec.get t.phis k in
    let args = match Func.instr f v with Func.Phi args -> args | _ -> assert false in
    let preds = (Func.block f (Func.block_of_instr f v)).Func.preds in
    for ix = 0 to Array.length preds - 1 do
      let e = preds.(ix) in
      if t.edge_map.(e) >= 0 then
        Builder.set_phi_arg t.bld ~phi:t.value_map.(v) ~edge:t.edge_map.(e)
          (resolve t (Func.edge f e).Func.src args.(ix))
    done
  done;
  Builder.finish t.bld
