(* Drive the whole "HLO analog" pipeline over a small multi-routine mini-C
   program: parse, lower, build SSA, optimize (GVN among the other scalar
   passes), and report per-pass timings — the setting in which the paper's
   Table 1 measures GVN's share of total optimization time. *)

let program =
  {|
# A few routines exercising different analyses.

routine dot3(a0, a1, a2, b0, b1, b2) {
  s = a0 * b0 + a1 * b1 + a2 * b2;
  t = b0 * a0 + b1 * a1 + b2 * a2;   # reassociation proves t == s
  return s - t;
}

routine clamp_sum(x, y, lo, hi) {
  s = x + y;
  if (s < lo) s = lo;
  if (s > hi) s = hi;
  return s;
}

routine count_matches(a, b, n) {
  i = 0;
  c = 0;
  while (i < n) {
    if (f0(a + i) == f0(b + i)) c = c + 1;
    i = i + 1;
  }
  return c;
}

routine dead_code(x) {
  r = 0;
  if (3 > 4) r = f0(x);      # statically false: unreachable
  if (x == x) r = r + 1;     # statically true
  return r;
}
|}

let () =
  let routines = Ir.Parser.parse_program program in
  Fmt.pr "%d routines parsed@.@." (List.length routines);
  List.iter
    (fun r ->
      let f = Ssa.Construct.of_cir (Ir.Lower.lower_routine r) in
      let result =
        (* The pass-list API: the classic lineup is just [standard_passes]. *)
        let opts = Transform.Pipeline.Options.(default |> with_config Pgvn.Config.full) in
        Transform.Pipeline.run_list opts (Transform.Pipeline.standard_passes ()) f
      in
      let g = result.Transform.Pipeline.func in
      Fmt.pr "=== %s: %d -> %d instructions, %d -> %d blocks ===@." r.Ir.Ast.name
        (Ir.Func.num_instrs f) (Ir.Func.num_instrs g) (Ir.Func.num_blocks f)
        (Ir.Func.num_blocks g);
      Fmt.pr "%a" Ir.Printer.pp g;
      Fmt.pr "GVN: %.2f ms of %.2f ms total (%.0f%%)@.@."
        (result.Transform.Pipeline.gvn_seconds *. 1e3)
        (result.Transform.Pipeline.total_seconds *. 1e3)
        (100.0 *. result.Transform.Pipeline.gvn_seconds
        /. result.Transform.Pipeline.total_seconds);
      (* Equivalence spot check. *)
      let rng = Util.Prng.create 11 in
      let ok = ref true in
      for _ = 1 to 200 do
        let args = Array.init 6 (fun _ -> Util.Prng.range rng (-10) 10) in
        if
          not
            (Ir.Interp.equal_result (Ir.Interp.run f args) (Ir.Interp.run g args))
        then ok := false
      done;
      Fmt.pr "semantics preserved on 200 random inputs: %b@.@." !ok)
    routines
