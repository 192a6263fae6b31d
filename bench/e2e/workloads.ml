(* The benchmark's four workloads, generated from a seed as mini-C text.

   At seed 0 the SPEC-analog routines are exactly Workload.Suite's (same
   generator seeds and profiles); any other seed shifts every generator
   seed by the same stride, so each seed is a fresh draw of the same
   traffic shape. Two parts stay fixed across seeds, for reasons given
   where they are made: the serve-zipf request stream over size ranks and
   the large-routines file. The program under test only ever sees the
   files and frames written here. *)

(* The gvnopt flags a workload runs under; [argv] renders them. *)
type opts = { jobs : int; check : bool; validate : bool; gcm : bool; serve : bool }

(* Always [--flag=value]: a bare optional-value flag (--gcm, --validate,
   --serve) swallows the next argument, so [--serve] goes last. *)
let argv o =
  (if o.check then [ "--check" ] else [])
  @ (if o.validate then [ "--validate=all" ] else [])
  @ (if o.gcm then [ "--gcm=check" ] else [])
  @ [ Printf.sprintf "--jobs=%d" o.jobs ]
  @ if o.serve then [ "--serve" ] else []

type t = {
  opts : opts;
  units : (string * string) list;
      (** In submission order: (file name, source) for batch workloads,
          (request id, frame payload) under [--serve]. *)
}

let names = [ "spec-batch"; "serve-zipf"; "large-routines"; "certify" ]

let batch = { jobs = 2; check = false; validate = false; gcm = false; serve = false }

let opts_of = function
  | "spec-batch" -> batch
  | "serve-zipf" -> { batch with serve = true }
  | "large-routines" -> { batch with jobs = 1 }
  | "certify" -> { batch with check = true; validate = true; gcm = true }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The one-line routine whose answer ends a set-up measurement. *)
let warm_source = "routine bwarm(a) { return a + 1; }\n"

let shift ~seed s = s + (seed * 1_000_000_007)
let source_of r = Fmt.str "%a@." Ir.Ast.pp_routine r

(* A routine name cannot start with a digit, so "176.gcc" routines are
   named b176_gcc_rNNN. *)
let routine_name bench k =
  Printf.sprintf "b%s_r%03d" (String.map (function '.' -> '_' | c -> c) bench) k

(* Mirrors Workload.Suite.routines_of, which yields SSA functions only;
   the benchmark needs the source text. *)
let suite_routines ~seed ~scale (b : Workload.Suite.benchmark) =
  let n = max 1 (int_of_float (float_of_int b.routines *. scale)) in
  List.init n (fun k ->
      let profile =
        {
          Workload.Generator.default_profile with
          stmt_budget = b.stmt_budget + (k mod 7 * 5);
          params = 3 + (k mod 3);
        }
      in
      Workload.Generator.routine ~profile
        ~seed:(shift ~seed ((b.seed * 10_000) + k))
        ~name:(routine_name b.name k) ())

let suite_files ~seed ~scale benches =
  List.map
    (fun (b : Workload.Suite.benchmark) ->
      ( b.name ^ ".mc",
        String.concat "" (List.map source_of (suite_routines ~seed ~scale b)) ))
    benches

let pick names =
  List.filter (fun (b : Workload.Suite.benchmark) -> List.mem b.name names)
    Workload.Suite.benchmarks

(* Zipf(s) ranks over [n] items: the cumulative weights for inverse-CDF
   sampling. *)
let zipf_cdf ~s n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let uniform rng = float_of_int (Util.Prng.int rng (1 lsl 30)) /. float_of_int (1 lsl 30)

let zipf_draw rng cdf =
  let u = uniform rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let ssa_size r = Ir.Func.num_instrs (Ssa.Construct.of_cir (Ir.Lower.lower_routine r))

let permutation rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Util.Prng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* [requests] frames of [per_request] routines each, drawn Zipf(1.1) from
   [pool]. Every request pays parse, lowering, SSA and canonicalization
   for every routine, hit or miss, so the few hottest routines set the
   workload's latency. The stream is therefore drawn over size ranks, the
   same for every seed: a seed brings other routines, but the routine at
   each popularity rank sits at the same size quantile of the pool, and
   the hit pattern is the same. *)
let zipf_requests ~requests ~per_request pool =
  let pool = Array.of_list pool in
  let n = Array.length pool in
  let by_size = Array.mapi (fun i r -> (ssa_size r, i)) pool in
  Array.sort compare by_size;
  let rng = Util.Prng.create 0x5e7e in
  let perm = Array.map (fun q -> snd by_size.(q)) (permutation rng n) in
  let cdf = zipf_cdf ~s:1.1 n in
  List.init requests (fun i ->
      let body =
        String.concat ""
          (List.init per_request (fun _ -> source_of pool.(perm.(zipf_draw rng cdf))))
      in
      (Printf.sprintf "request%03d" i, body))

let generate ~seed ~scale name =
  let opts = opts_of name in
  let count x = max 1 (int_of_float (Float.round (x *. scale))) in
  let units =
    match name with
    | "spec-batch" -> suite_files ~seed ~scale:(2. *. scale) Workload.Suite.benchmarks
    | "serve-zipf" ->
        let pool =
          List.concat_map (suite_routines ~seed ~scale:(2. *. scale)) Workload.Suite.benchmarks
        in
        zipf_requests ~requests:(count 200.) ~per_request:8 pool
    | "large-routines" ->
        (* Random 400-statement routines differ too much from one another
           (one constant guard near the top can remove half of one) for
           any 24 to stand for another 24, and their order moves the peak
           heap, so this file is the same for every seed. About a third of
           the draws lower to a few dozen instructions; those are
           redrawn. *)
        let profile =
          { Workload.Generator.default_profile with stmt_budget = 400; max_depth = 8 }
        in
        let rec large k attempt =
          let r =
            Workload.Generator.routine ~profile
              ~seed:(2002_0000 + (attempt * 1000) + k)
              ~name:(Printf.sprintf "blarge_r%02d" k) ()
          in
          if ssa_size r >= 1000 then r else large k (attempt + 1)
        in
        let ladders =
          List.map
            (fun n -> Workload.Pathological.ladder (max 8 (int_of_float (float_of_int n *. scale))))
            [ 64; 128; 192; 256 ]
        in
        let routines = List.init (count 24.) (fun k -> large k 0) @ ladders in
        [ ("large.mc", String.concat "" (List.map source_of routines)) ]
    | "certify" ->
        suite_files ~seed ~scale:(3. *. scale) (pick [ "176.gcc"; "253.perlbmk"; "254.gap" ])
    | _ -> assert false
  in
  { opts; units }

(* ------------------------------------------------------------------ *)
(* On disk: DIR/argv (one flag per line), DIR/inputs (file names in
   argument order) or DIR/requests.bin (4-byte big-endian length-prefixed
   frames, gvnopt's --serve framing), DIR/warm.mc, DIR/props.json. *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let frame payload =
  let n = String.length payload in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b ^ payload

(* Split a byte string of frames; [None] when it does not end on a frame
   boundary. *)
let unframe s =
  let rec go pos acc =
    if pos = String.length s then Some (List.rev acc)
    else if pos + 4 > String.length s then None
    else
      let n = Int32.to_int (String.get_int32_be s pos) in
      if n < 0 || pos + 4 + n > String.length s then None
      else go (pos + 4 + n) (String.sub s (pos + 4) n :: acc)
  in
  go 0 []

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let save ~dir w =
  write_file (Filename.concat dir "argv") (String.concat "\n" (argv w.opts) ^ "\n");
  write_file (Filename.concat dir "warm.mc") warm_source;
  if w.opts.serve then
    write_file (Filename.concat dir "requests.bin")
      (String.concat "" (List.map (fun (_, body) -> frame body) w.units))
  else begin
    List.iter (fun (file, src) -> write_file (Filename.concat dir file) src) w.units;
    write_file (Filename.concat dir "inputs") (String.concat "\n" (List.map fst w.units) ^ "\n")
  end

let load ~dir name =
  let opts = opts_of name in
  let units =
    if opts.serve then
      match unframe (read_file (Filename.concat dir "requests.bin")) with
      | Some bodies -> List.mapi (fun i b -> (Printf.sprintf "request%03d" i, b)) bodies
      | None -> failwith "requests.bin: truncated frame"
    else
      List.map
        (fun file -> (file, read_file (Filename.concat dir file)))
        (lines (read_file (Filename.concat dir "inputs")))
  in
  { opts; units }

(* The input properties the workload's behaviour depends on, measured on
   the text as gvnopt will parse it. *)
let props w =
  let routines = List.concat_map (fun (_, src) -> Ir.Parser.parse_program src) w.units in
  let seen = Hashtbl.create 1024 in
  let repeats = ref 0 and instrs = ref 0 and biggest = ref 0 in
  List.iter
    (fun (r : Ir.Ast.routine) ->
      let n =
        match Hashtbl.find_opt seen r.name with
        | Some n ->
            incr repeats;
            n
        | None ->
            let n = ssa_size r in
            Hashtbl.add seen r.name n;
            n
      in
      instrs := !instrs + n;
      biggest := max !biggest n)
    routines;
  let total = List.length routines in
  [
    ("routines", float_of_int total);
    ("distinct_routines", float_of_int (Hashtbl.length seen));
    ("source_bytes", float_of_int (List.fold_left (fun n (_, s) -> n + String.length s) 0 w.units));
    ("ssa_instrs", float_of_int !instrs);
    ("max_routine_instrs", float_of_int !biggest);
    ("repeat_share", float_of_int !repeats /. float_of_int (max 1 total));
  ]
