(* The OCaml half of the end-to-end benchmark (README.md); run.py drives it.

     e2e gen --seed S --out DIR [--scale X] [--workloads W,...]
         write the workloads (default: all four) under DIR/<workload>/
     e2e check --workload W --dir DIR --output FILE
         the correctness gate: replay gvnopt's compile path and compare
         its text with gvnopt's output in FILE (stdout of a batch run, or
         the response frames of a --serve run), then run every optimized
         routine against the pre-SSA reference interpreter
     e2e trace --workload W --dir DIR --seconds T --chrome FILE
         the per-layer ledger: replay the path with a span around every
         library call for T seconds; write the first pass's Chrome trace

   Each subcommand prints one JSON object on stdout. *)

let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* [--key value] or [--key=value] pairs after the subcommand. *)
let parse_args args =
  let rec go acc = function
    | [] -> acc
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" -> (
        match String.index_opt a '=' with
        | Some i -> go ((String.sub a 2 (i - 2), String.sub a (i + 1) (String.length a - i - 1)) :: acc) rest
        | None -> (
            match rest with
            | v :: rest -> go ((String.sub a 2 (String.length a - 2), v) :: acc) rest
            | [] -> die "%s needs a value" a))
    | a :: _ -> die "unexpected argument %s" a
  in
  go [] args

let arg kv ?default k =
  match (List.assoc_opt k kv, default) with
  | Some v, _ | None, Some v -> v
  | None, None -> die "missing --%s" k

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let json_nums kvs = json_obj (List.map (fun (k, x) -> (k, json_num x)) kvs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)

let gen kv =
  let get = arg kv in
  let seed = int_of_string (get ~default:"0" "seed") in
  let scale = float_of_string (get ~default:"1" "scale") in
  let out = get "out" in
  let names = String.split_on_char ',' (get ~default:(String.concat "," Workloads.names) "workloads") in
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir out;
  let props =
    List.map
      (fun name ->
        let w = Workloads.generate ~seed ~scale name in
        let dir = Filename.concat out name in
        mkdir dir;
        Workloads.save ~dir w;
        let p = json_nums (Workloads.props (Workloads.load ~dir name)) in
        Workloads.write_file (Filename.concat dir "props.json") (p ^ "\n");
        (name, p))
      names
  in
  print_endline (json_obj props)

(* ------------------------------------------------------------------ *)
(* The correctness gate. *)

(* Split rendered output into per-routine sections at the "=== name ==="
   header lines. *)
let sections s =
  let n = String.length s in
  let starts = ref [] in
  for i = n - 4 downto 0 do
    if (i = 0 || s.[i - 1] = '\n') && String.sub s i 4 = "=== " then starts := i :: !starts
  done;
  let rec cut = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: cut rest
    | [ a ] -> [ String.sub s a (n - a) ]
    | [] -> []
  in
  cut !starts

(* The validate summary ends in a measured time, "| overhead 0.0007s":
   the one field of gvnopt's text that differs from run to run. *)
let untimed s =
  let mark = "| overhead " in
  let m = String.length mark and n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + m <= n && String.sub s i m = mark then begin
      Buffer.add_string b "| overhead";
      let j = ref (i + m) in
      while !j < n && s.[!j] <> '\n' do incr j done;
      go !j
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* gvnopt's "--- optimized (A -> B instrs" line of one section. *)
let instr_counts section =
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf line "--- optimized (%d -> %d instrs" (fun a b -> (a, b)) with
      | ab -> Some ab
      | exception _ -> acc)
    None (String.split_on_char '\n' section)

let fuel = 1_000_000
let vectors = 4

(* Run the optimized function against the pre-SSA reference on seeded
   argument vectors: whether they agree, and optimized over input-SSA
   interpreter steps. *)
let interp_check ~seed (cir, f, g) =
  let rng = Util.Prng.create (Workloads.shift ~seed (Hashtbl.hash f.Ir.Func.name)) in
  let t_in = { Ir.Interp.steps = 0; blocks_visited = 0 } in
  let t_out = { Ir.Interp.steps = 0; blocks_visited = 0 } in
  let ok = ref true in
  for _ = 1 to vectors do
    let args = Array.init f.Ir.Func.nparams (fun _ -> Util.Prng.range rng (-50) 50) in
    let reference = Ir.Cir.run ~fuel cir args in
    ignore (Ir.Interp.run ~fuel ~trace:t_in f args);
    let got = Ir.Interp.run ~fuel ~trace:t_out g args in
    if not (Ir.Interp.equal_result reference got) then ok := false
  done;
  (!ok, float_of_int t_out.steps /. float_of_int t_in.steps)

(* A workload's ratio is its median routine's: a few routines that
   collapse to a handful of instructions would otherwise decide it. *)
let median_of tbl = median (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

let check kv =
  let get = arg kv in
  let name = get "workload" and dir = get "dir" in
  let seed = int_of_string (get ~default:"0" "seed") in
  let w = Workloads.load ~dir name in
  let actual = Workloads.read_file (get "output") in
  let runs = Par.Pool.with_pool ~domains:w.opts.jobs (fun pool -> Path.run ~pool ~ledger:None w) in
  (* One (harness results, gvnopt's text or why there is none) per
     request; a batch run is a single request. *)
  let pairs =
    if w.opts.serve then
      let frames = Option.value ~default:[] (Workloads.unframe actual) in
      List.mapi
        (fun i results ->
          ( results,
            match List.nth_opt frames i with
            | None -> Error "no well-formed response frame"
            | Some "" -> Error "empty response frame"
            | Some p when p.[0] <> '0' -> Error (Printf.sprintf "status byte %C" p.[0])
            | Some p -> Ok (String.sub p 1 (String.length p - 1)) ))
        runs
    else List.map (fun results -> (results, Ok actual)) runs
  in
  let failures = ref [] and failed = ref 0 and routines = ref 0 in
  let fail name why =
    incr failed;
    if List.length !failures < 20 then failures := (name ^ ": " ^ why) :: !failures
  in
  let interp = Hashtbl.create 1024 and steps = Hashtbl.create 1024 in
  let instrs = Hashtbl.create 1024 in
  (* A cache hit can precede, in input order, the miss that filled it. *)
  List.iter
    (fun ((results : Path.compiled array), _) ->
      Array.iter
        (fun (c : Path.compiled) ->
          match c.fresh with
          | Some fresh when not (Hashtbl.mem interp c.name) ->
              let ok, r = interp_check ~seed fresh in
              Hashtbl.add interp c.name ok;
              Hashtbl.add steps c.name r
          | _ -> ())
        results)
    pairs;
  List.iter
    (fun ((results : Path.compiled array), text) ->
      let got = Result.map sections text in
      Array.iteri
        (fun i (c : Path.compiled) ->
          incr routines;
          match got with
          | Error why -> fail c.name why
          | Ok got -> (
              match List.nth_opt got i with
              | None -> fail c.name "missing from gvnopt's output"
              | Some text when untimed text <> untimed c.out ->
                  fail c.name "gvnopt's text differs from the harness"
              | Some text ->
                  Option.iter
                    (fun (a, b) ->
                      Hashtbl.replace instrs c.name (float_of_int b /. float_of_int a))
                    (instr_counts text);
                  if c.failed then fail c.name "gvnopt reported diagnostics"
                  else if not (Hashtbl.find interp c.name) then
                    fail c.name "optimized code disagrees with the reference interpreter"))
        results)
    pairs;
  print_endline
    (json_obj
       [
         ("routines", string_of_int !routines);
         ("failed", string_of_int !failed);
         ("failures", "[" ^ String.concat ", " (List.rev_map json_str !failures) ^ "]");
         ("opt_instr_ratio", json_num (median_of instrs));
         ("dyn_steps_ratio", json_num (median_of steps));
       ])

(* ------------------------------------------------------------------ *)
(* The per-layer ledger. *)

(* Spans on the main domain; everything else runs inside pool tasks. *)
let main_spans = [ "ir.parser"; "par.pool.map"; "io.stdout" ]

let pass_metrics ~domains ~wall (l : Path.ledger) =
  let dur = Hashtbl.create 32 in
  List.iter
    (function
      | Obs.Sink.Span_end { name; dur = d; _ } ->
          Hashtbl.replace dur name (d +. Option.value ~default:0. (Hashtbl.find_opt dur name))
      | _ -> ())
    (Obs.Trace.events l.obs.trace);
  let s name = Option.value ~default:0. (Hashtbl.find_opt dur name) in
  let c name = float_of_int (Obs.Metrics.counter l.obs.metrics name) in
  let task_layers =
    Hashtbl.fold (fun name d acc -> if List.mem name main_spans then acc else acc +. d) dur 0.
  in
  let coverage =
    (s "ir.parser" +. s "io.stdout" +. (l.map_wall *. ratio task_layers l.busy)) /. wall
  in
  (* A share of the time spent in layers, on either domain. *)
  let share name = ratio (s name) (s "ir.parser" +. s "io.stdout" +. task_layers) in
  let hits = c "par.ccache.hits" and misses = c "par.ccache.misses" in
  let instrs = c "pgvn.driver.instrs_processed" in
  [
    ("ir.parser.s", s "ir.parser");
    ("ir.lower.s", s "ir.lower");
    ("ssa.construct.s", s "ssa.construct");
    ("ssa.construct.us_per_instr", 1e6 *. ratio (s "ssa.construct") (c "ssa.construct.instrs"));
    ("ssa.construct.phis", c "ssa.construct.phis");
    ("par.ccache.key_s", s "par.ccache.key");
    ("par.ccache.canon_bytes", c "par.ccache.canon_bytes");
    ("par.ccache.lookup_s", s "par.ccache.lookup");
    ("par.ccache.add_s", s "par.ccache.add");
    ("par.ccache.hits", hits);
    ("par.ccache.misses", misses);
    ("par.ccache.hit_share", ratio hits (hits +. misses));
    ("pgvn.driver.s", s "pgvn.driver");
    ("pgvn.driver.passes", c "pgvn.driver.passes");
    ("pgvn.driver.vi_visits_per_instr", ratio (c "pgvn.driver.vi_visits") instrs);
    ("pgvn.driver.pi_visits_per_instr", ratio (c "pgvn.driver.pi_visits") instrs);
    ("pgvn.driver.pp_visits_per_instr", ratio (c "pgvn.driver.pp_visits") instrs);
    ("pgvn.driver.table_hit_share", ratio (c "pgvn.driver.table_hits") (c "pgvn.driver.table_probes"));
    ("par.pool.busy_s", l.busy);
    ("par.pool.wait_s", ratio l.wait (float_of_int l.tasks));
    ("par.pool.tasks", float_of_int l.tasks);
    ("par.pool.idle_share", 1. -. ratio l.busy (float_of_int domains *. l.map_wall));
    ("transform.apply.s", s "transform.apply");
    ("transform.apply.witnesses", c "transform.apply.witnesses");
    ("transform.dce.s", s "transform.dce");
    ("transform.dce.instrs_removed", c "transform.dce.instrs_removed");
    ("transform.simplify_cfg.s", s "transform.simplify_cfg");
    ("transform.simplify_cfg.blocks_removed", c "transform.simplify_cfg.blocks_removed");
    ("ir.printer.s", s "ir.printer");
    ("ir.printer.bytes", c "ir.printer.bytes");
    (* The certifier layers run only under the certify workload: as
       shares they read 0 elsewhere, where a time in seconds would read
       the same 0 on every run. *)
    ("transform.gcm.plan_share", share "transform.gcm.plan");
    ("transform.gcm.certify_share", share "transform.gcm.certify");
    ("transform.gcm.apply_share", share "transform.gcm.apply");
    ("transform.gcm.moved", c "transform.gcm.moved");
    ("check.share", share "check");
    ("validate.share", share "validate");
    ("validate.equiv_share", share "validate.equiv");
    ("harness.coverage", coverage);
    ("harness.wall_s", wall);
  ]

(* Tokens per second of Ir.Lexer.tokenize over the workload's sources, a
   separate measurement outside the coverage sum: median of three. *)
let lexer_rate (w : Workloads.t) =
  let rate () =
    let t0 = now () in
    let n = List.fold_left (fun n (_, src) -> n + List.length (Ir.Lexer.tokenize src)) 0 w.units in
    float_of_int n /. (now () -. t0)
  in
  median (List.init 3 (fun _ -> rate ()))

let trace kv =
  let get = arg kv in
  let name = get "workload" and dir = get "dir" in
  let seconds = float_of_string (get "seconds") in
  let chrome = get "chrome" in
  let w = Workloads.load ~dir name in
  let domains = w.opts.jobs in
  let passes =
    Par.Pool.with_pool ~domains (fun pool ->
        let t_end = now () +. seconds in
        let rec loop acc =
          let l = Path.ledger () in
          let t0 = now () in
          ignore (Path.run ~pool ~ledger:(Some l) w);
          let wall = now () -. t0 in
          Path.close l;
          if acc = [] then Obs.write_chrome l.obs chrome;
          let acc = pass_metrics ~domains ~wall l :: acc in
          if now () < t_end then loop acc else acc
        in
        loop [])
  in
  let metrics =
    List.map
      (fun (k, _) -> (k, median (List.map (fun p -> List.assoc k p) passes)))
      (List.hd passes)
  in
  print_endline
    (json_obj
       [
         ("passes", string_of_int (List.length passes));
         ("metrics", json_nums (("ir.lexer.tokens_per_s", lexer_rate w) :: metrics));
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: args -> gen (parse_args args)
  | _ :: "check" :: args -> check (parse_args args)
  | _ :: "trace" :: args -> trace (parse_args args)
  | _ -> die "usage: e2e (gen|check|trace) --key value ..."
