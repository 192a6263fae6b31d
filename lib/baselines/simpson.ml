(* Simpson's hash-based optimistic value numbering algorithms [13]:

   - [rpo]: repeated reverse-post-order passes over the whole routine with a
     hash table cleared before every pass, until the value numbers reach a
     fixed point;
   - [scc]: Tarjan's strongly connected components of the SSA use-def graph,
     processed in dependency order — acyclic values are numbered once
     against a persistent "valid" table, cyclic components iterate against
     an "optimistic" table cleared per round.

   On acyclic code the two compute identical partitions. On cyclic code the
   SCC algorithm refines (finds no more than) the RPO result: two
   *independent* φ-cycles that advance in lockstep are congruent under
   whole-routine RPO hashing — both cycles hash into the same table while
   still optimistic — but live in separate use-def components, which the
   SCC algorithm numbers one at a time against already-committed keys. The
   tests check refinement in general and equality on acyclic programs; the
   engine's AWZ emulation matches RPO exactly. *)

let top = -1

(* The key of [v]'s instruction under current value numbers; [None] when
   the value cannot be keyed yet (φ whose live args are all ⊤). *)
let key_of (f : Ir.Func.t) (vn : int array) v : [ `Key of Hashkey.t | `Copy of int | `Top ] =
  match Ir.Func.instr f v with
  | Ir.Func.Const n -> `Key (Hashkey.Kconst n)
  | Ir.Func.Param k -> `Key (Hashkey.Kparam k)
  | Ir.Func.Opaque (tag, args) ->
      `Key (Hashkey.Kopq (tag, Array.to_list (Array.map (fun a -> vn.(a)) args)))
  | Ir.Func.Unop (op, a) -> `Key (Hashkey.Kunop (op, vn.(a)))
  | Ir.Func.Binop (op, a, b) -> `Key (Hashkey.Kbinop (op, vn.(a), vn.(b)))
  | Ir.Func.Cmp (op, a, b) -> `Key (Hashkey.Kcmp (op, vn.(a), vn.(b)))
  | Ir.Func.Phi args ->
      let reps =
        Array.to_list args
        |> List.map (fun a -> vn.(a))
        |> List.filter (fun r -> r <> top)
      in
      (match reps with
      | [] -> `Top
      | first :: rest ->
          if List.for_all (fun r -> r = first) rest then `Copy first
          else `Key (Hashkey.Kphi (Ir.Func.block_of_instr f v, reps)))
  | Ir.Func.Jump | Ir.Func.Branch _ | Ir.Func.Switch _ | Ir.Func.Return _ -> `Top

(* Values in instruction order of an RPO block traversal. *)
let values_in_rpo f =
  let rpo = Analysis.Ctx.rpo (Analysis.Ctx.create f) f in
  let out = ref [] in
  Array.iter
    (fun b ->
      Array.iter
        (fun i -> if Ir.Func.defines_value (Ir.Func.instr f i) then out := i :: !out)
        (Ir.Func.block f b).Ir.Func.instrs)
    rpo.Analysis.Rpo.order;
  Array.of_list (List.rev !out)

type result = { vn : int array; passes : int }

let rpo (f : Ir.Func.t) : result =
  let order = values_in_rpo f in
  let vn = Array.make (Ir.Func.num_instrs f) top in
  (* One arena per run; per-pass tables key on the consed cells, so a key
     recurring across passes probes by precomputed tag. *)
  let arena = Hashkey.create_arena () in
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr passes;
    let table = Hashkey.Consed_table.create 64 in
    Array.iter
      (fun v ->
        let nv =
          match key_of f vn v with
          | `Top -> top
          | `Copy r -> r
          | `Key k -> (
              let ck = Hashkey.intern arena k in
              match Hashkey.Consed_table.find_opt table ck with
              | Some r -> r
              | None ->
                  Hashkey.Consed_table.replace table ck v;
                  v)
        in
        if vn.(v) <> nv then begin
          vn.(v) <- nv;
          changed := true
        end)
      order
  done;
  { vn; passes = !passes }

(* Tarjan SCCs of the use-def graph (value -> operand values). *)
let sccs_of (f : Ir.Func.t) (order : int array) =
  let ni = Ir.Func.num_instrs f in
  let index = Array.make ni (-1) in
  let low = Array.make ni 0 in
  let onstack = Array.make ni false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    onstack.(v) <- true;
    Ir.Func.iter_operands
      (fun w ->
        if Ir.Func.defines_value (Ir.Func.instr f w) then
          if index.(w) < 0 then begin
            strongconnect w;
            low.(v) <- min low.(v) low.(w)
          end
          else if onstack.(w) then low.(v) <- min low.(v) index.(w))
      (Ir.Func.instr f v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            onstack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  Array.iter (fun v -> if index.(v) < 0 then strongconnect v) order;
  (* Tarjan pops an SCC only after all SCCs it depends on: the accumulated
     list (reversed) is already in dependency order. *)
  List.rev !sccs

let scc (f : Ir.Func.t) : result =
  let order = values_in_rpo f in
  let rpo_pos = Array.make (Ir.Func.num_instrs f) max_int in
  Array.iteri (fun k v -> rpo_pos.(v) <- k) order;
  let vn = Array.make (Ir.Func.num_instrs f) top in
  let arena = Hashkey.create_arena () in
  let valid = Hashkey.Consed_table.create 64 in
  let passes = ref 0 in
  let self_dependent v =
    let dep = ref false in
    Ir.Func.iter_operands (fun w -> if w = v then dep := true) (Ir.Func.instr f v);
    !dep
  in
  let number_with table v =
    match key_of f vn v with
    | `Top -> top
    | `Copy r -> r
    | `Key k -> (
        let ck = Hashkey.intern arena k in
        match Hashkey.Consed_table.find_opt valid ck with
        | Some r -> r
        | None -> (
            match Hashkey.Consed_table.find_opt table ck with
            | Some r -> r
            | None ->
                Hashkey.Consed_table.replace table ck v;
                v))
  in
  let commit table =
    Hashkey.Consed_table.iter
      (fun k r ->
        if not (Hashkey.Consed_table.mem valid k) then
          Hashkey.Consed_table.replace valid k r)
      table
  in
  List.iter
    (fun comp ->
      match comp with
      | [ v ] when not (self_dependent v) ->
          incr passes;
          vn.(v) <- number_with valid v
      | comp ->
          let comp = List.sort (fun a b -> compare rpo_pos.(a) rpo_pos.(b)) comp in
          let changed = ref true in
          while !changed do
            changed := false;
            incr passes;
            let opt = Hashkey.Consed_table.create 16 in
            List.iter
              (fun v ->
                let nv = number_with opt v in
                if vn.(v) <> nv then begin
                  vn.(v) <- nv;
                  changed := true
                end)
              comp;
            if not !changed then commit opt
          done)
    (sccs_of f order);
  { vn; passes = !passes }
