type event =
  | Span_begin of { name : string; cat : string; depth : int; ts : float }
  | Span_end of { name : string; cat : string; depth : int; ts : float; dur : float }
  | Count of { name : string; incr : int; total : int; ts : float }
  | Gauge of { name : string; value : float; ts : float }
  | Observe of { name : string; ns : int; ts : float }

type t = { emit : event -> unit }

let null = { emit = (fun _ -> ()) }

let memory () =
  let log = ref [] in
  ({ emit = (fun e -> log := e :: !log) }, fun () -> List.rev !log)

let event_name = function
  | Span_begin { name; _ }
  | Span_end { name; _ }
  | Count { name; _ }
  | Gauge { name; _ }
  | Observe { name; _ } -> name
