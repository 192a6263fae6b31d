(* See ccache.mli. *)

type key = { khash : int; kcanon : string }

(* FNV-1a, folded to OCaml's 63-bit nonnegative int range. The index loop
   keeps [h] an unboxed local; a closure over it would box every step. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  Int64.to_int !h land max_int

(* No_sharing renders equal values to equal bytes whatever their physical
   sharing, so the key is a function of the value's structure alone. The
   fingerprint is length-prefixed: no fingerprint/value split of one byte
   string can read as another. *)
let key_of ?(fingerprint = "") v =
  let kcanon =
    String.concat ""
      [
        "pgvn-key/2\n";
        string_of_int (String.length fingerprint);
        ":";
        fingerprint;
        Marshal.to_string v [ Marshal.No_sharing ];
      ]
  in
  { khash = fnv1a kcanon; kcanon }

(* ------------------------------------------------------------------ *)
(* In-memory tier. *)

type entry = { canon : string; mutable value : string }

type t = {
  lock : Mutex.t;
  table : (int, entry list ref) Hashtbl.t; (* hash -> bucket, collision-aware *)
  fifo : (int * string) Queue.t; (* insertion order, for eviction *)
  capacity : int;
  mutable n_entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { entries : int; hits : int; misses : int; evictions : int }

let create ?(capacity = 4096) () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    fifo = Queue.create ();
    capacity = max 1 capacity;
    n_entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let count obs name = Obs.add_o obs name 1

let find ?obs t key =
  let r =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table key.khash with
    | None ->
        t.misses <- t.misses + 1;
        None
    | Some bucket -> (
        (* verify-on-hit: a hash collision must read as a miss *)
        match List.find_opt (fun e -> String.equal e.canon key.kcanon) !bucket with
        | Some e ->
            t.hits <- t.hits + 1;
            Some e.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  count obs (match r with Some _ -> "ccache.hits" | None -> "ccache.misses");
  r

(* Remove the oldest entry. FIFO slots can be stale (an overwritten entry
   keeps its original slot), so pop until one still resolves. *)
let evict_oldest t =
  let removed = ref false in
  while (not !removed) && not (Queue.is_empty t.fifo) do
    let h, canon = Queue.pop t.fifo in
    match Hashtbl.find_opt t.table h with
    | None -> ()
    | Some bucket ->
        let before = List.length !bucket in
        bucket := List.filter (fun e -> not (String.equal e.canon canon)) !bucket;
        if List.length !bucket < before then begin
          removed := true;
          t.n_entries <- t.n_entries - 1;
          if !bucket = [] then Hashtbl.remove t.table h
        end
  done;
  !removed

let add ?obs t key value =
  let evicted =
    locked t @@ fun () ->
    let bucket =
      match Hashtbl.find_opt t.table key.khash with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add t.table key.khash b;
          b
    in
    (match List.find_opt (fun e -> String.equal e.canon key.kcanon) !bucket with
    | Some e -> e.value <- value (* overwrite in place; keeps its FIFO slot *)
    | None ->
        bucket := { canon = key.kcanon; value } :: !bucket;
        Queue.push (key.khash, key.kcanon) t.fifo;
        t.n_entries <- t.n_entries + 1);
    let evicted = ref 0 in
    while t.n_entries > t.capacity do
      if evict_oldest t then incr evicted else t.n_entries <- t.capacity
    done;
    t.evictions <- t.evictions + !evicted;
    !evicted
  in
  for _ = 1 to evicted do
    count obs "ccache.evictions"
  done

let stats t =
  locked t @@ fun () ->
  { entries = t.n_entries; hits = t.hits; misses = t.misses; evictions = t.evictions }

(* ------------------------------------------------------------------ *)
(* Persisted tier. Format (all counts in decimal ASCII):

     pgvn-ccache/2\n
     <n>\n
     <hash> <key-bytes> <value-bytes>\n
     <key><value>\n              (repeated n times)

   Loads are corruption-tolerant by contract: any read failure, bad count,
   version mismatch or short file yields a cold cache. Entries are written
   oldest-first so a reloaded cache evicts in the same order. *)

let format_version = "pgvn-ccache/2"

let save t path =
  (* snapshot under the lock, write outside it *)
  let entries =
    locked t @@ fun () ->
    Queue.fold
      (fun acc (h, canon) ->
        match Hashtbl.find_opt t.table h with
        | None -> acc
        | Some bucket -> (
            match List.find_opt (fun e -> String.equal e.canon canon) !bucket with
            | Some e -> (h, e.canon, e.value) :: acc
            | None -> acc))
      [] t.fifo
  in
  let entries = List.rev entries in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        Printf.fprintf oc "%s\n%d\n" format_version (List.length entries);
        List.iter
          (fun (h, canon, value) ->
            Printf.fprintf oc "%d %d %d\n%s%s\n" h (String.length canon) (String.length value)
              canon value)
          entries);
    Sys.rename tmp path
  with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())

exception Corrupt

let load ?capacity path =
  let t = create ?capacity () in
  (try
     let ic = open_in_bin path in
     Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
         if input_line ic <> format_version then raise Corrupt;
         let n =
           match int_of_string_opt (input_line ic) with
           | Some n when n >= 0 -> n
           | _ -> raise Corrupt
         in
         for _ = 1 to n do
           let h, cl, vl =
             match String.split_on_char ' ' (input_line ic) with
             | [ a; b; c ] -> (
                 match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
                 | Some h, Some cl, Some vl when h >= 0 && cl >= 0 && vl >= 0 -> (h, cl, vl)
                 | _ -> raise Corrupt)
             | _ -> raise Corrupt
           in
           let canon = really_input_string ic cl in
           let value = really_input_string ic vl in
           if input_char ic <> '\n' then raise Corrupt;
           let key = { khash = h; kcanon = canon } in
           if key.khash <> fnv1a canon then raise Corrupt;
           add t key value
         done)
   with Corrupt | End_of_file | Sys_error _ | Failure _ ->
     (* cold cache on any corruption: drop whatever partially loaded *)
     Hashtbl.reset t.table;
     Queue.clear t.fifo;
     t.n_entries <- 0;
     t.evictions <- 0);
  (* loading is not cache traffic: don't let partial loads skew stats *)
  t.hits <- 0;
  t.misses <- 0;
  t
