(* See pool.mli for the contract. The deques are mutex-protected rather
   than lock-free: a batch enqueues whole routines (milliseconds of work
   each), so deque traffic is cold and an uncontended lock/unlock per
   operation is noise — while the locking makes owner-pop vs thief-steal
   trivially race-free on every OCaml 5.x runtime. *)

(* ------------------------------------------------------------------ *)
(* Per-worker deque: the owner pushes and pops at the bottom (LIFO keeps
   a worker on its own cache-warm items), thieves take from the top. *)

type task = unit -> unit

module Deque = struct
  type t = {
    lock : Mutex.t;
    mutable buf : task array;
    mutable top : int; (* next steal slot: buf.(top .. bottom-1) pending *)
    mutable bottom : int;
  }

  let dummy_task () = ()

  let create () = { lock = Mutex.create (); buf = Array.make 64 dummy_task; top = 0; bottom = 0 }

  let locked d f =
    Mutex.lock d.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock d.lock) f

  let push d task =
    locked d @@ fun () ->
    let n = Array.length d.buf in
    if d.bottom = n then
      if d.top > 0 then begin
        (* compact: slide the pending window back to index 0 *)
        Array.blit d.buf d.top d.buf 0 (d.bottom - d.top);
        d.bottom <- d.bottom - d.top;
        d.top <- 0
      end
      else begin
        let bigger = Array.make (2 * n) dummy_task in
        Array.blit d.buf 0 bigger 0 n;
        d.buf <- bigger
      end;
    d.buf.(d.bottom) <- task;
    d.bottom <- d.bottom + 1

  let pop d =
    locked d @@ fun () ->
    if d.top >= d.bottom then None
    else begin
      d.bottom <- d.bottom - 1;
      let t = d.buf.(d.bottom) in
      d.buf.(d.bottom) <- dummy_task;
      Some t
    end

  let steal d =
    locked d @@ fun () ->
    if d.top >= d.bottom then None
    else begin
      let t = d.buf.(d.top) in
      d.buf.(d.top) <- dummy_task;
      d.top <- d.top + 1;
      Some t
    end
end

(* ------------------------------------------------------------------ *)

type t = {
  domains : int;
  deques : Deque.t array; (* one per worker; index 0 is the caller *)
  remaining : int Atomic.t; (* tasks of the current batch still unfinished *)
  lock : Mutex.t; (* guards [generation] and [quit] *)
  cond : Condition.t;
  mutable generation : int; (* bumped once per batch; workers sleep on it *)
  mutable quit : bool;
  mutable handles : unit Domain.t list; (* spawned workers (ids 1..n-1) *)
  mutable alive : bool;
}

let size t = t.domains

(* One task, defensively: the [map] wrappers already capture exceptions
   into the batch's error slots, so anything escaping here would be a pool
   bug — but a worker domain must never die with tasks outstanding, or the
   batch would hang. The decrement is what publishes the task's writes to
   the joining caller (Atomic gives the happens-before edge). *)
let run_task t task =
  (try task () with _ -> ());
  ignore (Atomic.fetch_and_add t.remaining (-1))

(* Work until the current batch is drained: own deque first, then steal
   round-robin. Runs on worker domains and, during [map], on the caller. *)
let drain t w =
  let n = Array.length t.deques in
  (* Spin briefly on an empty scan, then sleep: a worker with nothing left
     to steal must get off the core — on oversubscribed hosts (more domains
     than cores) pure spinning starves whoever holds the last tasks. *)
  let misses = ref 0 in
  while Atomic.get t.remaining > 0 do
    match Deque.pop t.deques.(w) with
    | Some task ->
        run_task t task;
        misses := 0
    | None ->
        let stolen = ref None in
        let i = ref 1 in
        while !stolen = None && !i < n do
          (match Deque.steal t.deques.((w + !i) mod n) with
          | Some task -> stolen := Some task
          | None -> ());
          incr i
        done;
        (match !stolen with
        | Some task ->
            run_task t task;
            misses := 0
        | None ->
            incr misses;
            if !misses < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002)
  done

let worker_body t w =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.quit) && t.generation = !last_gen do
      Condition.wait t.cond t.lock
    done;
    let gen = t.generation and quit = t.quit in
    Mutex.unlock t.lock;
    if quit then running := false
    else begin
      last_gen := gen;
      drain t w
    end
  done

let create ?domains () =
  let domains =
    match domains with
    | Some n when n < 1 -> invalid_arg "Par.Pool.create: domains must be >= 1"
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      deques = Array.init domains (fun _ -> Deque.create ());
      remaining = Atomic.make 0;
      lock = Mutex.create ();
      cond = Condition.create ();
      generation = 0;
      quit = false;
      handles = [];
      alive = true;
    }
  in
  t.handles <- List.init (domains - 1) (fun k -> Domain.spawn (fun () -> worker_body t (k + 1)));
  t

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Mutex.lock t.lock;
    t.quit <- true;
    Condition.broadcast t.cond;
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
    (* Arm the count before the first push: a worker still draining the
       previous batch may steal a task the moment it lands, and its
       decrement must count against this batch. *)
    Atomic.set t.remaining n;
    for i = 0 to n - 1 do
      let task () =
        match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e
      in
      Deque.push t.deques.(i mod t.domains) task
    done;
    Mutex.lock t.lock;
    t.generation <- t.generation + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    drain t 0;
    (* remaining = 0: every task has run and its decrement ordered its
       writes before our read — the result slots are all published. *)
    Array.iteri (fun i e -> match e with Some exn -> raise exn | None -> ignore i) errors;
    Array.map Option.get results
  end
