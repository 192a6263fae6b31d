(* See pool.mli for the contract. A batch is a flat array of independent
   tasks known before the first one runs, so one counter distributes it:
   every participant claims the next unclaimed index until the batch runs
   dry. *)

type batch = {
  run : int -> unit; (* task [i]; stores its result or exception, never raises *)
  n : int;
  next : int Atomic.t; (* next unclaimed index; >= n once the batch is drained *)
  remaining : int Atomic.t; (* tasks not yet finished *)
}

type t = {
  domains : int;
  lock : Mutex.t; (* guards [current] and [quit]; the conditions' mutex *)
  wake : Condition.t; (* a new batch was published, or [quit] was set *)
  finished : Condition.t; (* the current batch's last task has finished *)
  mutable current : batch; (* the latest published batch *)
  mutable quit : bool;
  mutable handles : unit Domain.t list; (* spawned workers *)
  mutable alive : bool;
}

let idle = { run = ignore; n = 0; next = Atomic.make 0; remaining = Atomic.make 0 }

let size t = t.domains

(* Claim and run tasks until the batch is drained. The counters belong to
   [b] alone, so a participant that arrives after [b] drained claims
   nothing and cannot touch a later batch. The decrement is what publishes
   a task's writes to the caller (Atomic gives the happens-before edge);
   whoever finishes the last task wakes the caller. *)
let work t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.finished;
        Mutex.unlock t.lock
      end;
      claim ()
    end
  in
  claim ()

let rec worker t last =
  Mutex.lock t.lock;
  while (not t.quit) && t.current == last do
    Condition.wait t.wake t.lock
  done;
  let b = t.current and quit = t.quit in
  Mutex.unlock t.lock;
  if not quit then begin
    work t b;
    worker t b
  end

(* The runtime's domain limit, [Max_domains] in OCaml 5.1's caml/domain.h.
   Past it [Domain.spawn] fails with the earlier spawns already parked on
   [wake], so [create] refuses the count before spawning anything. *)
let max_domains = if Sys.word_size = 64 then 128 else 16

let create ?domains () =
  let domains =
    match domains with
    | Some n when n < 1 -> invalid_arg "Par.Pool.create: domains must be >= 1"
    | Some n when n > max_domains ->
        invalid_arg (Printf.sprintf "Par.Pool.create: domains must be <= %d" max_domains)
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      current = idle;
      quit = false;
      handles = [];
      alive = true;
    }
  in
  t.handles <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t idle));
  t

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Mutex.lock t.lock;
    t.quit <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.handles;
    t.handles <- []
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f arr =
  if not t.alive then invalid_arg "Par.Pool.map: pool is shut down";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.domains = 1 then Array.map f arr (* sequential fallback *)
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let run i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    in
    let b = { run; n; next = Atomic.make 0; remaining = Atomic.make n } in
    Mutex.lock t.lock;
    t.current <- b;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    work t b;
    Mutex.lock t.lock;
    while Atomic.get b.remaining > 0 do
      Condition.wait t.finished t.lock
    done;
    Mutex.unlock t.lock;
    Array.iter (function Some exn -> raise exn | None -> ()) errors;
    Array.map Option.get results
  end
