(* All registry state sits behind one mutex so the counters are safe under
   concurrent writers (the parallel driver's pool workers share a context
   when they share a sink). The mutex is NOT reentrant: public entry points
   take the lock exactly once and everything below them is an unlocked
   primitive. Sink emission happens inside the lock on purpose — it keeps
   each event's [total] consistent with the stream order. *)

type t = {
  clock : unit -> float;
  sink : Sink.t;
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) ?(sink = Sink.null) () =
  {
    clock;
    sink;
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* unlocked primitives — callers hold [t.lock] *)

let add_u t name n =
  let r =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.counters name r;
        r
  in
  r := !r + n;
  t.sink.Sink.emit (Sink.Count { name; incr = n; total = !r; ts = t.clock () })

let set_gauge_u t name v =
  (match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v));
  t.sink.Sink.emit (Sink.Gauge { name; value = v; ts = t.clock () })

let max_gauge_u t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then set_gauge_u t name v
  | None -> set_gauge_u t name v

let hist_u t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists name h;
      h

(* public, locking *)

let add t name n = locked t @@ fun () -> add_u t name n
let incr t name = add t name 1

let counter t name =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v = locked t @@ fun () -> set_gauge_u t name v
let max_gauge t name v = locked t @@ fun () -> max_gauge_u t name v
let gauge t name = locked t @@ fun () -> Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let observe_ns t name ns =
  locked t @@ fun () ->
  Hist.observe_ns (hist_u t name) ns;
  t.sink.Sink.emit (Sink.Observe { name; ns; ts = t.clock () })

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * (int * int) list) list;
}

let by_name (a, _) (b, _) = compare a b

let snapshot_u (t : t) =
  {
    counters =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [] |> List.sort by_name;
    gauges = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges [] |> List.sort by_name;
    hists =
      Hashtbl.fold (fun k h acc -> (k, Hist.sorted_entries h) :: acc) t.hists []
      |> List.sort by_name;
  }

let snapshot (t : t) = locked t @@ fun () -> snapshot_u t

(* Snapshot the source first, then replay into the destination — never both
   locks at once, so [merge_into] composes in any direction without a lock
   order. *)
let merge_into ~dst (src : t) =
  let s = snapshot src in
  locked dst @@ fun () ->
  List.iter (fun (name, v) -> add_u dst name v) s.counters;
  List.iter (fun (name, v) -> max_gauge_u dst name v) s.gauges;
  List.iter
    (fun (name, entries) ->
      let h = hist_u dst name in
      List.iter (fun (bucket, c) -> Hist.add_count h bucket c) entries)
    s.hists

let pp ppf t =
  (* one locked pass computes everything; rendering happens outside so a
     formatter that blocks can't hold the registry lock *)
  let s, hist_lines =
    locked t @@ fun () ->
    let s = snapshot_u t in
    let lines =
      List.map
        (fun (name, _) ->
          let h = hist_u t name in
          (name, Hist.total h, Hist.percentile_ns h 0.5, Hist.percentile_ns h 0.99))
        s.hists
    in
    (s, lines)
  in
  List.iter (fun (name, v) -> Fmt.pf ppf "%s %d@\n" name v) s.counters;
  List.iter (fun (name, v) -> Fmt.pf ppf "%s %g@\n" name v) s.gauges;
  List.iter
    (fun (name, total, p50, p99) ->
      Fmt.pf ppf "%s total=%d p50<=%dns p99<=%dns@\n" name total p50 p99)
    hist_lines
