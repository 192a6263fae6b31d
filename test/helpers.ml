(* Shared helpers for the GVN-level test suites. *)

let func_of_src = Workload.Corpus.func_of_src

(* A path under the repository root, found from the test binary's own
   location, so the suite runs from whatever directory it is started in:
   the source tree two levels above the build context when the path is
   there, else the build context itself (where built executables live). *)
let repo_path rel =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let source = Filename.concat (Filename.concat build_root (Filename.concat ".." "..")) rel in
  if Sys.file_exists source then source else Filename.concat build_root rel

(* The mini-C sources the repository ships, as (name, text) pairs:
   examples/programs/*.mc in file-name order, then the hand-written
   corpus. *)
let shipped_sources () =
  let dir = repo_path (Filename.concat "examples" "programs") in
  let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f -> (f, read f))
  in
  examples @ Workload.Corpus.all_named

(* The constant value of the (first reachable) return, if proved. *)
let return_constant st f =
  let result = ref None in
  for i = 0 to Ir.Func.num_instrs f - 1 do
    match Ir.Func.instr f i with
    | Ir.Func.Return v when Pgvn.State.block_reachable st (Ir.Func.block_of_instr f i) ->
        if !result = None then result := Pgvn.Driver.value_constant st v
    | _ -> ()
  done;
  !result

let run_and_return config src =
  let f = func_of_src src in
  let st = Pgvn.Driver.run config f in
  return_constant st f

(* Optimize end to end: GVN + rewrite + DCE + CFG cleanup, verified. *)
let optimize config f =
  let st = Pgvn.Driver.run config f in
  let g = Transform.Simplify_cfg.fixpoint (Transform.Dce.run (Transform.Apply.rebuild st f)) in
  ignore (Check.check_exn g);
  g

(* Behavioural equivalence on random inputs. *)
let equivalent ?(runs = 30) ?(fuel = 200_000) ~seed f g =
  let rng = Util.Prng.create seed in
  let ok = ref true in
  for _ = 1 to runs do
    let args = Array.init 8 (fun _ -> Util.Prng.range rng (-15) 15) in
    if not (Ir.Interp.equal_result (Ir.Interp.run ~fuel f args) (Ir.Interp.run ~fuel g args))
    then ok := false
  done;
  !ok

let check_const msg expected got =
  match (expected, got) with
  | Some e, Some g when e = g -> ()
  | None, None -> ()
  | _ ->
      let s = function None -> "non-constant" | Some c -> string_of_int c in
      Alcotest.failf "%s: expected %s, got %s" msg (s expected) (s got)

let all_configs =
  [
    ("full", Pgvn.Config.full);
    ("complete", { Pgvn.Config.full with variant = Pgvn.Config.Complete });
    ("balanced", Pgvn.Config.balanced);
    ("pessimistic", Pgvn.Config.pessimistic);
    ("dense", Pgvn.Config.dense);
    ("extended", Pgvn.Config.full_extended);
    ("basic", Pgvn.Config.basic);
    ("click", Pgvn.Config.emulate_click);
    ("sccp", Pgvn.Config.emulate_sccp);
    ("sccp-exact", Pgvn.Config.emulate_sccp_exact);
    ("awz", Pgvn.Config.emulate_awz);
  ]

(* A shallow rule-table client over hash-consed atoms, for the expression
   and rule-catalog properties: constants are visible to the matcher,
   everything else is an opaque atom, and compound right-hand sides are
   declined, so only depth-1 identities fire. The engine's own subject
   ([Pgvn.Rewrite.make_subject]) also sees through congruence classes and
   needs a [State.t]; this one needs only an arena. Constant folding is the
   matcher's, which refuses folds that would hide a run-time trap. *)
module Shallow = struct
  module H = Pgvn.Hexpr

  let subject a rank : H.t Rules.Engine.subject =
    {
      Rules.Engine.view =
        (fun x ->
          match H.node x with H.Const n -> Rules.Engine.Sconst n | _ -> Rules.Engine.Satom);
      equal = H.equal;
      bconst = H.const a;
      bunop =
        (fun op x ->
          match H.node x with
          | H.Const p -> Some (H.const a (Ir.Types.eval_unop op p))
          | _ -> if H.is_atom x then Some (H.make_op a rank (H.Uuop op) [ x ]) else None);
      bbinop =
        (fun op x y ->
          match (H.node x, H.node y) with
          | H.Const p, H.Const q -> Option.map (H.const a) (Ir.Types.fold_binop op p q)
          | _ ->
              if H.is_atom x && H.is_atom y then Some (H.make_op a rank (H.Ubop op) [ x; y ])
              else None);
      reduce = (fun x -> if H.is_atom x then Some x else None);
    }

  let binop_atoms a rank op x y =
    match Rules.Engine.rewrite_binop (Rules.Engine.shared ()) (subject a rank) op x y with
    | Some r -> r
    | None -> H.make_op a rank (H.Ubop op) [ x; y ]

  (* [!(a ≷ b)] stays a comparison, as in the engine: comparisons are
     outside the rule DSL's term language. *)
  let unop_atom a rank op x =
    match (op, H.node x) with
    | Ir.Types.Lnot, H.Cmp (c, u, v) -> H.cmp_ a (Ir.Types.negate_cmp c) u v
    | _ -> (
        match Rules.Engine.rewrite_unop (Rules.Engine.shared ()) (subject a rank) op x with
        | Some r -> r
        | None -> H.make_op a rank (H.Uuop op) [ x ])
end
