(* The one execution loop of [Ir.Interp] against the reference interpreter
   ([Interp_oracle], the three loops it replaced): results, trace counts,
   hook events, the fuel at which [Timeout] arrives, and traps. *)

type event = Block of int | Def of int * int | Edge of int

type instrumented =
  ?fuel:int ->
  ?on_def:(int -> int -> unit) ->
  ?on_edge:(int -> unit) ->
  ?on_block:(int -> unit) ->
  Ir.Func.t ->
  int array ->
  Ir.Interp.result

(* The result and the hook events, in firing order. *)
let events (run : instrumented) ~fuel f args =
  let log = ref [] in
  let r =
    run ~fuel
      ~on_def:(fun i v -> log := Def (i, v) :: !log)
      ~on_edge:(fun e -> log := Edge e :: !log)
      ~on_block:(fun b -> log := Block b :: !log)
      f args
  in
  (r, List.rev !log)

let fresh_trace () = { Ir.Interp.steps = 0; blocks_visited = 0 }

(* Every entry point of both interpreters on [f] and [args] under [fuel]:
   the first thing they disagree on, if any. *)
let disagreement ~fuel f args =
  let t = fresh_trace () and t' = fresh_trace () in
  let r = Ir.Interp.run ~fuel ~trace:t f args and r' = Interp_oracle.run ~fuel ~trace:t' f args in
  let (ri, ev), (ri', ev') =
    (events Ir.Interp.run_instrumented ~fuel f args, events Interp_oracle.run_instrumented ~fuel f args)
  in
  let (re, env), (re', env') =
    (Ir.Interp.run_with_env ~fuel f args, Interp_oracle.run_with_env ~fuel f args)
  in
  if not (Ir.Interp.equal_result r r') then Some "run's result"
  else if t <> t' then Some "run's trace counts"
  else if not (Ir.Interp.equal_result ri ri') then Some "run_instrumented's result"
  else if ev <> ev' then Some "run_instrumented's hook events"
  else if not (Ir.Interp.equal_result re re') then Some "run_with_env's result"
  else if env <> env' then Some "run_with_env's environment"
  else None

(* Both interpreters agree at ample fuel, at exactly the fuel the run needs,
   one unit short of it (where [Timeout] must arrive) and at a cut inside
   the run. *)
let check_func ?(fuel = 300_000) ~seed name f =
  let rng = Util.Prng.create seed in
  List.iter
    (fun args ->
      let t = fresh_trace () in
      let r = Ir.Interp.run ~fuel ~trace:t f args in
      let fuels =
        if r = Ir.Interp.Timeout then [ fuel ]
        else begin
          if Ir.Interp.run ~fuel:(t.steps - 1) f args <> Ir.Interp.Timeout then
            Alcotest.failf "%s: no timeout one step short of %d" name t.steps;
          [ fuel; t.steps; t.steps - 1; Util.Prng.range rng 0 (t.steps - 1) ]
        end
      in
      List.iter
        (fun fuel ->
          match disagreement ~fuel f args with
          | None -> ()
          | Some what ->
              Alcotest.failf "%s: %s differs at fuel %d on [%s]" name what fuel
                (String.concat "," (Array.to_list (Array.map string_of_int args))))
        fuels)
    (Validate.Inputs.vectors ~runs:4 ~seed f.Ir.Func.nparams)

(* A routine and what full GVN makes of it. *)
let with_gvn_output f = [ f; Helpers.optimize Pgvn.Config.full f ]

let prop_generated =
  QCheck.Test.make ~name:"the loop runs as the reference on generated routines" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100000))
    (fun seed ->
      List.iter
        (check_func ~seed (Printf.sprintf "seed %d" seed))
        (with_gvn_output (Workload.Generator.func ~seed ~name:"i" ()));
      true)

let shipped_funcs () =
  List.concat_map
    (fun (_, src) ->
      List.map
        (fun r -> Ssa.Construct.of_cir (Ir.Lower.lower_routine r))
        (Ir.Parser.parse_program src))
    (Helpers.shipped_sources ())

let test_shipped () =
  List.iter
    (fun f -> List.iter (check_func ~seed:7 f.Ir.Func.name) (with_gvn_output f))
    (shipped_funcs ())

(* Both faulting shapes of the divide trap in both interpreters; a loop
   that never ends runs out of fuel at the same step, with the same
   events, at every fuel up to a few trips round it; and two φs that swap
   their values read each other as a parallel copy. *)
let test_traps_timeouts_swaps () =
  let div = Helpers.func_of_src "routine d(a, b) { return a / b; }" in
  let rem = Helpers.func_of_src "routine r(a, b) { return a % b; }" in
  List.iter
    (fun f ->
      List.iter
        (fun args ->
          (match Ir.Interp.run f args with
          | Ir.Interp.Trap -> ()
          | r -> Alcotest.failf "%s: expected a trap, got %a" f.Ir.Func.name Ir.Interp.pp_result r);
          match disagreement ~fuel:100 f args with
          | None -> ()
          | Some what -> Alcotest.failf "%s: %s differs" f.Ir.Func.name what)
        [ [| min_int; -1 |]; [| 5; 0 |] ])
    [ div; rem ];
  let spin =
    Helpers.func_of_src
      "routine s(a) { x = 0; y = 1; while (a > 0) { t = x; x = y; y = t + 1; } return x; }"
  in
  for fuel = 0 to 60 do
    (match Ir.Interp.run ~fuel spin [| 1 |] with
    | Ir.Interp.Timeout -> ()
    | r -> Alcotest.failf "spin: expected a timeout, got %a" Ir.Interp.pp_result r);
    match disagreement ~fuel spin [| 1 |] with
    | None -> ()
    | Some what -> Alcotest.failf "spin: %s differs at fuel %d" what fuel
  done;
  let swap =
    Helpers.func_of_src
      "routine w(a) { x = 0; y = 1; while (a > 0) { t = x; x = y; y = t; a = a - 1; } return x * 2 + y; }"
  in
  (match Ir.Interp.run swap [| 3 |] with
  | Ir.Interp.Ret 2 -> ()
  | r -> Alcotest.failf "swap: expected ret 2, got %a" Ir.Interp.pp_result r);
  check_func ~seed:7 "swap" swap

(* The loop allocates per run, not per block or instruction: a thousand
   times the fuel costs no more words. *)
let test_allocation_free () =
  let spin =
    Helpers.func_of_src
      "routine s(a, b) { x = 0; while (a > 0) { x = x + f0(x, b) / 7; } return x; }"
  in
  let words fuel =
    let w0 = Gc.minor_words () in
    ignore (Ir.Interp.run ~fuel spin [| 1; 2 |]);
    Gc.minor_words () -. w0
  in
  ignore (words 10);
  Alcotest.(check (float 0.)) "words at 100 and 100,000 fuel" (words 100) (words 100_000)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_generated;
    Alcotest.test_case "shipped routines and their GVN outputs" `Quick test_shipped;
    Alcotest.test_case "traps, timeouts and a φ swap" `Quick test_traps_timeouts_swaps;
    Alcotest.test_case "the loop allocates nothing per step" `Quick test_allocation_free;
  ]
