(* The array-backed equivalence oracle ([Validate.Oracle]) against the
   reference oracle ([Vgvn_oracle], the hash-table rounds it replaced):
   congruence, constants, reachability, round and class counts, on
   generated routines, the shipped examples and the GVN outputs of both;
   and the precondition under which the oracle skips the rule table. *)

(* For each value, the first value congruent to it ([-1] for none). *)
let partition congruent n =
  Array.init n (fun v ->
      let rec first u = if u > v then -1 else if congruent u v then u else first (u + 1) in
      first 0)

(* The first thing the two oracles disagree on for [f], if any. *)
let disagreement f =
  let o = Validate.Oracle.run f and r = Vgvn_oracle.run f in
  let ni = Ir.Func.num_instrs f in
  let differs n get get' = List.exists (fun k -> get k <> get' k) (List.init n Fun.id) in
  if Validate.Oracle.rounds o <> Vgvn_oracle.rounds r then Some "rounds"
  else if Validate.Oracle.classes o <> Vgvn_oracle.classes r then Some "classes"
  else if partition (Validate.Oracle.congruent o) ni <> partition (Vgvn_oracle.congruent r) ni then
    Some "congruence"
  else if differs ni (Validate.Oracle.constant o) (Vgvn_oracle.constant r) then Some "constants"
  else if
    differs (Ir.Func.num_blocks f) (Validate.Oracle.block_reachable o) (Vgvn_oracle.block_reachable r)
  then Some "block reachability"
  else if
    differs (Ir.Func.num_edges f) (Validate.Oracle.edge_reachable o) (Vgvn_oracle.edge_reachable r)
  then Some "edge reachability"
  else None

let check_func name f =
  match disagreement f with
  | None -> ()
  | Some what -> Alcotest.failf "%s: the oracles' %s differ" name what

(* A routine and what full GVN makes of it. *)
let with_gvn_output f = [ f; Helpers.optimize Pgvn.Config.full f ]

let prop_generated name ?profile count =
  QCheck.Test.make ~name ~count
    QCheck.(make ~print:string_of_int Gen.(int_bound 100000))
    (fun seed ->
      List.iter
        (check_func (Printf.sprintf "seed %d" seed))
        (with_gvn_output (Workload.Generator.func ?profile ~seed ~name:"o" ()));
      true)

let test_shipped () =
  List.iter
    (fun (_, src) ->
      List.iter
        (fun r ->
          let f = Ssa.Construct.of_cir (Ir.Lower.lower_routine r) in
          List.iter (check_func r.Ir.Ast.name) (with_gvn_output f))
        (Ir.Parser.parse_program src))
    (Helpers.shipped_sources ())

(* The oracle skips the rule table for a binop whose operands have no
   known constant and different numbers. Its adapter views an operand only
   as a constant or an atom, and two different atoms are not equal, so a
   rule could match there only if its left-hand side were two distinct
   metavariables. Every catalog rule, in both orientations, must need a
   literal, a constant, a nested operator or a repeated metavariable, and
   the compiled table must decline every binop over two distinct atoms. *)
let test_rule_skip_is_exact () =
  List.iter
    (fun (rule : Rules.Pattern.rule) ->
      match rule.Rules.Pattern.lhs with
      | Rules.Pattern.Pbinop (_, Rules.Pattern.Pvar i, Rules.Pattern.Pvar j) when i <> j ->
          Alcotest.failf "rule %s matches two distinct atoms" rule.Rules.Pattern.name
      | _ -> ())
    Rules.Catalog.all;
  let atoms : int Rules.Engine.subject =
    {
      Rules.Engine.view = (fun _ -> Rules.Engine.Satom);
      equal = ( = );
      bconst = (fun _ -> -1);
      bunop = (fun _ _ -> None);
      bbinop = (fun _ _ _ -> None);
      reduce = (fun _ -> None);
      fired = ignore;
    }
  in
  let table = Rules.Engine.compile Rules.Catalog.all in
  List.iter
    (fun op ->
      if Rules.Engine.rewrite_binop table atoms op 0 1 <> None then
        Alcotest.failf "the table rewrites %s over two distinct atoms"
          (Ir.Types.string_of_binop op))
    Ir.Types.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

(* The oracle's key table, held to OCaml's structural equality directly.
   A round reaches [Key.equal] only when two keys' full stored hashes
   collide, so the routine-level suites above never see it decide; here it
   meets pairs built to differ in one place: a call argument or φ entry at
   index 0, any single array element, a φ pred index (the even entries), an
   operator, or the leading tag or block. *)
module O = Validate.Oracle

let gen_key =
  QCheck.Gen.(
    let small = int_range 0 4 in
    let ints = map Array.of_list (list_size (int_range 0 4) small) in
    let phi_entries =
      map
        (fun l -> Array.of_list (List.concat_map (fun (p, n) -> [ p; n ]) l))
        (list_size (int_range 1 3) (pair small small))
    in
    oneof
      [
        map (fun c -> O.Kconst c) small;
        map (fun k -> O.Kparam k) small;
        map (fun i -> O.Kself i) small;
        map2 (fun o a -> O.Kunop (o, a)) (oneofl Ir.Types.[ Neg; Lnot; Bnot ]) small;
        map3
          (fun o a b -> O.Kbinop (o, a, b))
          (oneofl Ir.Types.[ Add; Sub; Div; Xor ])
          small small;
        map3 (fun o a b -> O.Kcmp (o, a, b)) (oneofl Ir.Types.[ Eq; Lt; Ge ]) small small;
        map2 (fun t xs -> O.Kcall (t, xs)) small ints;
        map2 (fun b xs -> O.Kphi (b, xs)) small phi_entries;
      ])

(* A copy of [k] (fresh arrays) changed at most in one place. *)
let gen_variant k =
  QCheck.Gen.(
    let bump x = x + 1 in
    let set_at xs j = Array.mapi (fun i x -> if i = j then bump x else x) xs in
    let arrays = function
      | O.Kcall (t, xs) -> Some ((fun ys -> O.Kcall (t, ys)), xs)
      | O.Kphi (b, xs) -> Some ((fun ys -> O.Kphi (b, ys)), xs)
      | _ -> None
    in
    let same = match arrays k with Some (mk, xs) -> mk (Array.copy xs) | None -> k in
    let lead = function
      | O.Kconst c -> O.Kconst (bump c)
      | O.Kparam c -> O.Kparam (bump c)
      | O.Kself c -> O.Kself (bump c)
      | O.Kunop (o, a) -> O.Kunop (Ir.Types.(if o = Neg then Bnot else Neg), a)
      | O.Kbinop (o, a, b) -> O.Kbinop (Ir.Types.(if o = Add then Sub else Add), a, b)
      | O.Kcmp (o, a, b) -> O.Kcmp (Ir.Types.(if o = Eq then Ne else Eq), a, b)
      | O.Kcall (t, xs) -> O.Kcall (bump t, Array.copy xs)
      | O.Kphi (b, xs) -> O.Kphi (bump b, Array.copy xs)
    in
    match arrays k with
    | None -> oneofl [ same; lead k ]
    | Some (mk, xs) ->
        let n = Array.length xs in
        oneof
          [
            return same;
            return (lead k);
            return (mk (set_at xs 0));
            map (fun j -> mk (set_at xs j)) (int_bound (max 0 (n - 1)));
            map (fun j -> mk (set_at xs (2 * j))) (int_bound (max 0 ((n / 2) - 1)));
            return (mk (Array.append xs [| 0 |]));
          ])

let prop_key_equality =
  QCheck.Test.make ~name:"the key table's equality is structural, its hash consistent"
    ~count:2000
    (QCheck.make QCheck.Gen.(gen_key >>= fun a -> map (fun b -> (a, b)) (gen_variant a)))
    (fun (a, b) -> O.Key.equal a b = (a = b) && ((a <> b) || O.Key.hash a = O.Key.hash b))

let suite =
  [
    prop_generated "the oracle numbers as the reference (default profile)" 60
    |> QCheck_alcotest.to_alcotest;
    prop_generated "the oracle numbers as the reference (300 statements, depth 8)"
      ~profile:{ Workload.Generator.default_profile with stmt_budget = 300; max_depth = 8 }
      10
    |> QCheck_alcotest.to_alcotest;
    Alcotest.test_case "shipped routines and their GVN outputs" `Quick test_shipped;
    Alcotest.test_case "the rule-table skip is exact over the catalog" `Quick
      test_rule_skip_is_exact;
    QCheck_alcotest.to_alcotest prop_key_equality;
  ]
