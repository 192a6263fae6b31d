(* A routine's control-flow analyses, computed on first use and kept. Each
   slot is filled at most once per context; the guard on every accessor
   ties the answers to the one function the context was made for. *)

type t = {
  func : Ir.Func.t;
  mutable graph : Graph.t option;
  mutable rpo : Rpo.t option;
  mutable dom : Dom.t option;
  mutable postdom : Postdom.t option;
  mutable loops : Loops.forest option;
}

let create func = { func; graph = None; rpo = None; dom = None; postdom = None; loops = None }

let own name t f =
  if t.func != f then invalid_arg ("Analysis.Ctx." ^ name ^ ": the function is not this context's")

let get ?ctx f =
  match ctx with
  | Some t ->
      own "get" t f;
      t
  | None -> create f

let graph t f =
  own "graph" t f;
  match t.graph with
  | Some g -> g
  | None ->
      let g = Graph.of_func f in
      t.graph <- Some g;
      g

let rpo t f =
  own "rpo" t f;
  match t.rpo with
  | Some r -> r
  | None ->
      let r = Rpo.compute (graph t f) in
      t.rpo <- Some r;
      r

let dom t f =
  own "dom" t f;
  match t.dom with
  | Some d -> d
  | None ->
      let d = Dom.compute ~rpo:(rpo t f) (graph t f) in
      t.dom <- Some d;
      d

let postdom t f =
  own "postdom" t f;
  match t.postdom with
  | Some p -> p
  | None ->
      let p = Postdom.compute (graph t f) in
      t.postdom <- Some p;
      p

let loops t f =
  own "loops" t f;
  match t.loops with
  | Some l -> l
  | None ->
      let l = Loops.forest ~rpo:(rpo t f) ~dom:(dom t f) (graph t f) in
      t.loops <- Some l;
      l
