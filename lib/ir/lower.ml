(* Lowering mini-C routines to the pre-SSA IR [Cir]. Short-circuit operators
   become control flow; [break]/[continue] target the innermost loop;
   statements following a terminator in the same block list are unreachable
   and are pruned after lowering. *)

type state = {
  blocks : (Cir.rinstr Util.Vec.t * Cir.term option ref) Util.Vec.t;
  regs : (string, int) Hashtbl.t;
  mutable nregs : int;
  mutable cur : int;
  mutable loop_stack : (int * int) list; (* (continue target, break target) *)
}

let fresh_reg st =
  let r = st.nregs in
  st.nregs <- r + 1;
  r

let reg_of_var st name =
  match Hashtbl.find_opt st.regs name with
  | Some r -> r
  | None ->
      let r = fresh_reg st in
      Hashtbl.replace st.regs name r;
      r

let new_block st =
  let b = Util.Vec.length st.blocks in
  Util.Vec.push st.blocks (Util.Vec.create ~dummy:(Cir.Iconst (0, 0)), ref None);
  b

let emit st i =
  let body, term = Util.Vec.get st.blocks st.cur in
  if !term = None then Util.Vec.push body i

let set_term st t =
  let _, term = Util.Vec.get st.blocks st.cur in
  if !term = None then term := Some t

let terminated st =
  let _, term = Util.Vec.get st.blocks st.cur in
  !term <> None

(* Stable opaque tag for a called function name. *)
let tag_of_name name =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) name;
  !h

let rec lower_expr st (e : Ast.expr) : int =
  match e with
  | Enum n ->
      let r = fresh_reg st in
      emit st (Cir.Iconst (r, n));
      r
  | Evar v ->
      let r = fresh_reg st in
      emit st (Cir.Imov (r, reg_of_var st v));
      r
  | Eunop (op, a) ->
      let ra = lower_expr st a in
      let r = fresh_reg st in
      emit st (Cir.Iunop (r, op, ra));
      r
  | Ebinop (op, a, b) ->
      let ra = lower_expr st a in
      let rb = lower_expr st b in
      let r = fresh_reg st in
      emit st (Cir.Ibinop (r, op, ra, rb));
      r
  | Ecmp (op, a, b) ->
      let ra = lower_expr st a in
      let rb = lower_expr st b in
      let r = fresh_reg st in
      emit st (Cir.Icmp (r, op, ra, rb));
      r
  | Eand (a, b) -> lower_short_circuit st ~is_and:true a b
  | Eor (a, b) -> lower_short_circuit st ~is_and:false a b
  | Ecall (f, args) ->
      let rargs = List.map (lower_expr st) args in
      let r = fresh_reg st in
      emit st (Cir.Iopaque (r, tag_of_name f, rargs));
      r

and lower_short_circuit st ~is_and a b =
  let result = fresh_reg st in
  let ra = lower_expr st a in
  let eval_b = new_block st in
  let short = new_block st in
  let join = new_block st in
  if is_and then set_term st (Cir.Tbranch (ra, eval_b, short))
  else set_term st (Cir.Tbranch (ra, short, eval_b));
  st.cur <- eval_b;
  let rb = lower_expr st b in
  let zero = fresh_reg st in
  emit st (Cir.Iconst (zero, 0));
  emit st (Cir.Icmp (result, Types.Ne, rb, zero));
  set_term st (Cir.Tjump join);
  st.cur <- short;
  emit st (Cir.Iconst (result, if is_and then 0 else 1));
  set_term st (Cir.Tjump join);
  st.cur <- join;
  result

let rec lower_stmt st (s : Ast.stmt) =
  if terminated st then begin
    (* Unreachable continuation; park it in a dangling block to keep lowering
       simple, pruned afterwards. *)
    let b = new_block st in
    st.cur <- b
  end;
  match s with
  | Sassign (v, e) ->
      let r = lower_expr st e in
      emit st (Cir.Imov (reg_of_var st v, r))
  | Sreturn e ->
      let r = lower_expr st e in
      set_term st (Cir.Treturn r)
  | Sbreak -> (
      match st.loop_stack with
      | [] -> failwith "Lower: break outside loop"
      | (_, brk) :: _ -> set_term st (Cir.Tjump brk))
  | Scontinue -> (
      match st.loop_stack with
      | [] -> failwith "Lower: continue outside loop"
      | (cont, _) :: _ -> set_term st (Cir.Tjump cont))
  | Sif (cond, then_, else_) ->
      let rc = lower_expr st cond in
      let bt = new_block st in
      let be = new_block st in
      let join = new_block st in
      set_term st (Cir.Tbranch (rc, bt, be));
      st.cur <- bt;
      List.iter (lower_stmt st) then_;
      set_term st (Cir.Tjump join);
      st.cur <- be;
      List.iter (lower_stmt st) else_;
      set_term st (Cir.Tjump join);
      st.cur <- join
  | Sswitch (e, cases, default) ->
      let r = lower_expr st e in
      let case_blocks = List.map (fun (k, body) -> (k, new_block st, body)) cases in
      let bdefault = new_block st in
      let join = new_block st in
      set_term st
        (Cir.Tswitch (r, Array.of_list (List.map (fun (k, b, _) -> (k, b)) case_blocks), bdefault));
      List.iter
        (fun (_, b, body) ->
          st.cur <- b;
          List.iter (lower_stmt st) body;
          set_term st (Cir.Tjump join))
        case_blocks;
      st.cur <- bdefault;
      List.iter (lower_stmt st) default;
      set_term st (Cir.Tjump join);
      st.cur <- join
  | Swhile (cond, body) ->
      let header = new_block st in
      set_term st (Cir.Tjump header);
      st.cur <- header;
      let rc = lower_expr st cond in
      let bbody = new_block st in
      let exit = new_block st in
      set_term st (Cir.Tbranch (rc, bbody, exit));
      st.cur <- bbody;
      st.loop_stack <- (header, exit) :: st.loop_stack;
      List.iter (lower_stmt st) body;
      st.loop_stack <- List.tl st.loop_stack;
      set_term st (Cir.Tjump header);
      st.cur <- exit

let lower_routine (r : Ast.routine) : Cir.t =
  let st =
    {
      blocks = Util.Vec.create ~dummy:(Util.Vec.create ~dummy:(Cir.Iconst (0, 0)), ref None);
      regs = Hashtbl.create 16;
      nregs = 0;
      cur = 0;
      loop_stack = [];
    }
  in
  (* Parameters occupy registers 0 .. n-1. *)
  List.iter (fun p -> ignore (reg_of_var st p)) r.params;
  let nparams = st.nregs in
  let b0 = new_block st in
  st.cur <- b0;
  List.iter (lower_stmt st) r.body;
  if not (terminated st) then begin
    let z = fresh_reg st in
    emit st (Cir.Iconst (z, 0));
    set_term st (Cir.Treturn z)
  end;
  let blocks =
    Array.init (Util.Vec.length st.blocks) (fun b ->
        let body, term = Util.Vec.get st.blocks b in
        let term =
          match !term with
          | Some t -> t
          | None ->
              (* A dangling unreachable block: give it any terminator, the
                 prune pass removes it (or it is an empty fallthrough join
                 that lost its only entry). *)
              Cir.Treturn 0
        in
        { Cir.body = Util.Vec.to_array body; term })
  in
  Cir.prune_unreachable { Cir.name = r.name; nparams; nregs = st.nregs; blocks }
