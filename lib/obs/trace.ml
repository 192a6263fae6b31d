type span = {
  s_name : string;
  s_cat : string;
  s_depth : int;
  s_begin : float;
  mutable s_end : float; (* < s_begin while open *)
}

type t = {
  clock : unit -> float;
  epoch : float;
  sink : Sink.t;
  (* event ring, oldest dropped first *)
  mutable ring : Sink.event array;
  mutable head : int; (* index of the oldest event *)
  mutable len : int;
  capacity : int;
  mutable stack : span list;
  mutable n_dropped : int;
  mutable n_spans : int;
}

let no_event = Sink.Count { name = ""; incr = 0; total = 0; ts = 0.0 }

let create ?(capacity = 65536) ?(clock = Unix.gettimeofday) ?(sink = Sink.null) () =
  {
    clock;
    epoch = clock ();
    sink;
    ring = Array.make (min capacity 256) no_event;
    head = 0;
    len = 0;
    capacity;
    stack = [];
    n_dropped = 0;
    n_spans = 0;
  }

let clock t = t.clock ()

let push_ring t e =
  let n = Array.length t.ring in
  if t.len = n && n < t.capacity then begin
    (* grow geometrically up to capacity, unrolling the ring *)
    let bigger = Array.make (min t.capacity (2 * n)) no_event in
    for i = 0 to t.len - 1 do
      bigger.(i) <- t.ring.((t.head + i) mod n)
    done;
    t.ring <- bigger;
    t.head <- 0
  end;
  let n = Array.length t.ring in
  if t.len = n then begin
    (* full at capacity: drop the oldest *)
    t.ring.(t.head) <- e;
    t.head <- (t.head + 1) mod n;
    t.n_dropped <- t.n_dropped + 1
  end
  else begin
    t.ring.((t.head + t.len) mod n) <- e;
    t.len <- t.len + 1
  end

let push t e =
  push_ring t e;
  t.sink.Sink.emit e

let begin_span t ?(cat = "span") name =
  let ts = t.clock () in
  let sp = { s_name = name; s_cat = cat; s_depth = List.length t.stack; s_begin = ts; s_end = neg_infinity } in
  t.stack <- sp :: t.stack;
  push t (Sink.Span_begin { name; cat; depth = sp.s_depth; ts });
  sp

let close_one t sp =
  let ts = t.clock () in
  sp.s_end <- ts;
  t.n_spans <- t.n_spans + 1;
  push t
    (Sink.Span_end
       { name = sp.s_name; cat = sp.s_cat; depth = sp.s_depth; ts; dur = ts -. sp.s_begin })

let end_span t sp =
  if sp.s_end < sp.s_begin then begin
    (* close anything left open inside [sp] first, keeping the stream
       balanced even on misuse *)
    let rec unwind = function
      | [] -> []
      | top :: rest ->
          close_one t top;
          if top == sp then rest else unwind rest
    in
    if List.memq sp t.stack then t.stack <- unwind t.stack
  end

let with_span t ?cat name f =
  let sp = begin_span t ?cat name in
  Fun.protect ~finally:(fun () -> end_span t sp) f

let duration sp = if sp.s_end < sp.s_begin then 0.0 else sp.s_end -. sp.s_begin

let timed t ?cat name f =
  let sp = begin_span t ?cat name in
  let x = Fun.protect ~finally:(fun () -> end_span t sp) f in
  (x, duration sp)

let depth t = List.length t.stack
let balanced t = t.stack = [] && t.n_dropped = 0
let dropped t = t.n_dropped
let spans_recorded t = t.n_spans

let events t =
  List.init t.len (fun i -> t.ring.((t.head + i) mod Array.length t.ring))

(* Append [src]'s recorded events into [dst]'s ring without re-emitting
   them to [dst]'s sink (they already streamed once, from [src]); the
   span/drop tallies carry over so [balanced] stays meaningful on the
   merged trace. [src] must be quiescent — this is the join-time merge of a
   worker's private trace, called after the worker is done with it. *)
let absorb ~dst (src : t) =
  List.iter (push_ring dst) (events src);
  dst.n_spans <- dst.n_spans + src.n_spans;
  dst.n_dropped <- dst.n_dropped + src.n_dropped

(* ------------------------------------------------------------------ *)
(* Chrome trace format.                                                *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_chrome ppf t =
  let us ts = (ts -. t.epoch) *. 1e6 in
  let evs =
    List.filter
      (function Sink.Span_begin _ | Sink.Span_end _ -> true | _ -> false)
      (events t)
  in
  let last = List.length evs - 1 in
  Fmt.pf ppf "{@\n\"traceEvents\": [@\n";
  List.iteri
    (fun i e ->
      let comma = if i = last then "" else "," in
      match e with
      | Sink.Span_begin { name; cat; ts; _ } ->
          Fmt.pf ppf
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", \"ts\": %.3f, \"pid\": 1, \"tid\": 1}%s@\n"
            (escape name) (escape cat) (us ts) comma
      | Sink.Span_end { name; cat; ts; _ } ->
          Fmt.pf ppf
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": 1}%s@\n"
            (escape name) (escape cat) (us ts) comma
      | _ -> ())
    evs;
  Fmt.pf ppf "],@\n\"displayTimeUnit\": \"ms\",@\n\"otherData\": {\"dropped\": \"%d\"}@\n}@\n"
    t.n_dropped

let write_chrome t path =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  pp_chrome ppf t;
  Format.pp_print_flush ppf ();
  close_out oc
