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
(* In-memory tier. The table's own equality compares the key bytes in
   full, so a lookup is verify-on-hit: a hash collision reads as a miss.
   [fifo] holds each resident key once, oldest first: an overwrite keeps
   its slot, so the queue and the table always hold the same keys. *)

module Table = Hashtbl.Make (struct
  type t = key

  let equal a b = String.equal a.kcanon b.kcanon
  let hash k = k.khash
end)

type t = {
  lock : Mutex.t;
  table : string Table.t;
  fifo : key Queue.t; (* insertion order, for eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { entries : int; hits : int; misses : int; evictions : int }

let create ?(capacity = 4096) () =
  {
    lock = Mutex.create ();
    table = Table.create 256;
    fifo = Queue.create ();
    capacity = max 1 capacity;
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
    let r = Table.find_opt t.table key in
    if Option.is_some r then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    r
  in
  count obs (match r with Some _ -> "ccache.hits" | None -> "ccache.misses");
  r

let add ?obs t key value =
  let evicted =
    locked t @@ fun () ->
    if Table.mem t.table key then begin
      (* an overwrite keeps its FIFO slot *)
      Table.replace t.table key value;
      false
    end
    else begin
      Table.add t.table key value;
      Queue.push key t.fifo;
      (* one insertion overflows the capacity by at most one entry *)
      let over = Queue.length t.fifo > t.capacity in
      if over then begin
        Table.remove t.table (Queue.pop t.fifo);
        t.evictions <- t.evictions + 1
      end;
      over
    end
  in
  if evicted then count obs "ccache.evictions"

let stats t =
  locked t @@ fun () ->
  { entries = Table.length t.table; hits = t.hits; misses = t.misses; evictions = t.evictions }

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
    List.of_seq (Seq.map (fun k -> (k, Table.find t.table k)) (Queue.to_seq t.fifo))
  in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        Printf.fprintf oc "%s\n%d\n" format_version (List.length entries);
        List.iter
          (fun ({ khash; kcanon }, value) ->
            Printf.fprintf oc "%d %d %d\n%s%s\n" khash (String.length kcanon)
              (String.length value) kcanon value)
          entries);
    Sys.rename tmp path
  with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())

exception Corrupt

let load ?capacity path =
  let t = create ?capacity () in
  try
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
          if h <> fnv1a canon then raise Corrupt;
          add t { khash = h; kcanon = canon } value
        done);
    t
  with Corrupt | End_of_file | Sys_error _ | Failure _ ->
    (* cold cache on any corruption: drop whatever partially loaded *)
    create ?capacity ()
