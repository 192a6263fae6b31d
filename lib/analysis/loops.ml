(* Natural-loop nesting forest. Each natural loop is keyed by its header (a
   block that dominates the source of at least one RPO back edge into it);
   loops with the same header are merged, bodies come from reverse
   reachability tail→header, and parent links nest each loop inside the
   smallest other loop containing its header. Retreating edges whose target
   does NOT dominate their source (irreducible control flow) form no natural
   loop: they are reported in [irreducible] instead of being silently folded
   into some body. *)

type loop = {
  header : int;
  parent : int; (* index into [loops] of the innermost enclosing loop, or -1 *)
  depth : int; (* 1 = outermost *)
  body : int array; (* member blocks, ascending; includes the header *)
  back_tails : int array; (* sources of the back edges into [header] *)
}

type forest = {
  nblocks : int;
  loops : loop array; (* ordered by header id *)
  loop_of : int array; (* block -> innermost containing loop index, or -1 *)
  nesting : int array; (* block -> number of containing loops *)
  irreducible : (int * int) list; (* retreating edges that form no natural loop *)
}

let forest ?rpo ?dom (g : Graph.t) : forest =
  let rpo = match rpo with Some r -> r | None -> Rpo.compute g in
  let dom = match dom with Some d -> d | None -> Dom.compute ~rpo g in
  let n = g.n in
  (* Group back-edge tails by header; split off irreducible retreating
     edges (RPO back edges whose target does not dominate their source). *)
  let tails : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let irreducible = ref [] in
  for u = 0 to n - 1 do
    if rpo.Rpo.number.(u) >= 0 then
      Array.iter
        (fun v ->
          if Rpo.is_back_edge rpo ~src:u ~dst:v then
            if Dom.dominates dom v u then
              match Hashtbl.find_opt tails v with
              | Some l -> l := u :: !l
              | None -> Hashtbl.add tails v (ref [ u ])
            else irreducible := (u, v) :: !irreducible)
        g.succ.(u)
  done;
  let headers = Hashtbl.fold (fun h _ acc -> h :: acc) tails [] |> List.sort compare in
  let nloops = List.length headers in
  let bodies = Array.make nloops [||] in
  let inloop = Array.make_matrix nloops n false in
  List.iteri
    (fun li h ->
      (* Natural loop body: reverse reachability from every tail, stopping
         at the header. The header dominates the whole body, so the walk
         never escapes into unreachable territory. *)
      let inl = inloop.(li) in
      inl.(h) <- true;
      let rec up b =
        if not inl.(b) then begin
          inl.(b) <- true;
          Array.iter up g.pred.(b)
        end
      in
      List.iter up !(Hashtbl.find tails h);
      let body = ref [] in
      for b = n - 1 downto 0 do
        if inl.(b) then body := b :: !body
      done;
      bodies.(li) <- Array.of_list !body)
    headers;
  (* Parent: the containing loop (≠ self) with the smallest body. Natural
     loops either nest or are disjoint once same-header loops are merged,
     so smallest-containing is the immediate parent. *)
  let parent = Array.make nloops (-1) in
  List.iteri
    (fun li h ->
      let best = ref (-1) in
      for lj = 0 to nloops - 1 do
        if lj <> li && inloop.(lj).(h)
           && (!best = -1 || Array.length bodies.(lj) < Array.length bodies.(!best))
        then best := lj
      done;
      parent.(li) <- !best)
    headers;
  let depth = Array.make nloops 0 in
  let rec depth_of li =
    if depth.(li) > 0 then depth.(li)
    else begin
      let d = if parent.(li) < 0 then 1 else 1 + depth_of parent.(li) in
      depth.(li) <- d;
      d
    end
  in
  List.iteri (fun li _ -> ignore (depth_of li)) headers;
  let loops =
    Array.of_list
      (List.mapi
         (fun li h ->
           {
             header = h;
             parent = parent.(li);
             depth = depth.(li);
             body = bodies.(li);
             back_tails = Array.of_list (List.sort compare !(Hashtbl.find tails h));
           })
         headers)
  in
  let nesting = Array.make n 0 in
  let loop_of = Array.make n (-1) in
  Array.iteri
    (fun li l ->
      Array.iter
        (fun b ->
          nesting.(b) <- nesting.(b) + 1;
          if loop_of.(b) = -1 || Array.length l.body < Array.length loops.(loop_of.(b)).body
          then loop_of.(b) <- li)
        l.body)
    loops;
  { nblocks = n; loops; loop_of; nesting; irreducible = List.rev !irreducible }

let depth_at fr b = fr.nesting.(b)

(* Blocks where a fixpoint over this graph should widen: every target of a
   retreating edge — natural-loop headers plus the targets of irreducible
   retreating edges (which head a cycle even though they head no natural
   loop). *)
let widen_blocks fr =
  List.sort_uniq compare
    (Array.fold_left (fun acc l -> l.header :: acc) [] fr.loops
    @ List.map snd fr.irreducible)

let max_nesting fr = Array.fold_left max 0 fr.nesting
