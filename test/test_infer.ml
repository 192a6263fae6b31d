(* Exhaustive soundness of the predicate implication logic (§2.7): for every
   pair of comparisons over two symbolic values and small constants, and for
   every integer assignment, a True/False verdict must agree with the
   ground truth whenever the fact holds. [Infer.decide] is generic in the
   atom type, so the atoms here are plain data. *)

module I = Pgvn.Infer

type atom = C of int | V of int

let ops = [ Ir.Types.Eq; Ne; Lt; Le; Gt; Ge ]

(* Atom universe: two values (ids 0, 1) and constants -2..2. *)
let atoms = V 0 :: V 1 :: List.init 5 (fun i -> C (i - 2))
let same (a : atom) b = a = b
let const = function C n -> Some n | V _ -> None
let eval_atom env = function C n -> n | V v -> env.(v)
let holds env (op, a, b) = Ir.Types.eval_cmp op (eval_atom env a) (eval_atom env b) = 1
let show_atom = function C n -> string_of_int n | V v -> Printf.sprintf "v%d" v

let show (op, a, b) =
  Printf.sprintf "(%s %s %s)" (show_atom a) (Ir.Types.string_of_cmp op) (show_atom b)

let test_exhaustive_soundness () =
  let checked = ref 0 in
  List.iter
    (fun fop ->
      List.iter
        (fun qop ->
          List.iter
            (fun fa ->
              List.iter
                (fun fb ->
                  List.iter
                    (fun qa ->
                      List.iter
                        (fun qb ->
                          let fact = (fop, fa, fb) in
                          let query = (qop, qa, qb) in
                          match
                            I.decide ~same ~const ~fop ~fa ~fb ~qop ~qa ~qb
                          with
                          | I.Unknown -> ()
                          | verdict ->
                              (* check against every assignment *)
                              for x = -4 to 4 do
                                for y = -4 to 4 do
                                  let env = [| x; y |] in
                                  if holds env fact then begin
                                    incr checked;
                                    let q = holds env query in
                                    match verdict with
                                    | I.True ->
                                        if not q then
                                          Alcotest.failf "unsound True: %s => %s with x=%d y=%d"
                                            (show fact) (show query) x y
                                    | I.False ->
                                        if q then
                                          Alcotest.failf "unsound False: %s => %s with x=%d y=%d"
                                            (show fact) (show query) x y
                                    | I.Unknown -> ()
                                  end
                                done
                              done)
                        atoms)
                    atoms)
                atoms)
            atoms)
        ops)
    ops;
  Alcotest.(check bool) "exercised many decided cases" true (!checked > 10_000)

(* Completeness spot checks: the paper's motivating inferences must be
   decided, not Unknown. *)
let check_verdict msg expected (fop, fa, fb) (qop, qa, qb) =
  let got = I.decide ~same ~const ~fop ~fa ~fb ~qop ~qa ~qb in
  let to_s = function I.True -> "True" | I.False -> "False" | I.Unknown -> "Unknown" in
  Alcotest.(check string) msg (to_s expected) (to_s got)

let test_paper_inferences () =
  (* "the value of X < 0 is false in a block dominated by X > 0" *)
  check_verdict "X>0 refutes X<0" I.False
    (Ir.Types.Gt, V 0, C 0)
    (Ir.Types.Lt, V 0, C 0);
  (* Figure 2: Z > 1 makes Z < 1 false (via Z > I with I = 1). *)
  check_verdict "Z>1 refutes Z<1" I.False
    (Ir.Types.Gt, V 0, C 1)
    (Ir.Types.Lt, V 0, C 1);
  (* Same-operand table. *)
  check_verdict "X=Y implies X<=Y" I.True
    (Ir.Types.Eq, V 0, V 1)
    (Ir.Types.Le, V 0, V 1);
  check_verdict "X<Y implies Y>=X ... mirrored" I.True
    (Ir.Types.Lt, V 0, V 1)
    (Ir.Types.Gt, V 1, V 0);
  check_verdict "X<Y refutes X=Y" I.False
    (Ir.Types.Lt, V 0, V 1)
    (Ir.Types.Eq, V 0, V 1);
  (* Interval reasoning across different constants. *)
  check_verdict "X>3 implies X>1" I.True
    (Ir.Types.Gt, V 0, C 3)
    (Ir.Types.Gt, V 0, C 1);
  check_verdict "X>3 implies X!=2" I.True
    (Ir.Types.Gt, V 0, C 3)
    (Ir.Types.Ne, V 0, C 2);
  check_verdict "X>3 refutes X=0" I.False
    (Ir.Types.Gt, V 0, C 3)
    (Ir.Types.Eq, V 0, C 0);
  check_verdict "X=2 implies X<=2" I.True
    (Ir.Types.Eq, V 0, C 2)
    (Ir.Types.Le, V 0, C 2);
  (* Genuinely undecidable stays Unknown. *)
  check_verdict "X<=Y leaves X<Y unknown" I.Unknown
    (Ir.Types.Le, V 0, V 1)
    (Ir.Types.Lt, V 0, V 1);
  check_verdict "unrelated operands stay unknown" I.Unknown
    (Ir.Types.Lt, V 0, C 0)
    (Ir.Types.Lt, V 1, C 0)

(* All 36 fact×query pairs of [same_operands_table], differenced against
   brute force over a small domain — in both directions: a True/False
   verdict must match every model of the fact (soundness), and Unknown is
   allowed only when the models genuinely disagree on the query
   (completeness: the table leaves nothing decidable on the table). *)
let test_same_operands_exhaustive () =
  List.iter
    (fun fop ->
      List.iter
        (fun qop ->
          let models = ref 0 and q_true = ref 0 in
          for x = -2 to 2 do
            for y = -2 to 2 do
              if Ir.Types.eval_cmp fop x y = 1 then begin
                incr models;
                if Ir.Types.eval_cmp qop x y = 1 then incr q_true
              end
            done
          done;
          let truth =
            if !q_true = !models then I.True
            else if !q_true = 0 then I.False
            else I.Unknown
          in
          let got = I.same_operands_table fop qop in
          if got <> truth then
            Alcotest.failf "x %s y => x %s y: table %s, brute force %s"
              (Ir.Types.string_of_cmp fop) (Ir.Types.string_of_cmp qop)
              (match got with I.True -> "True" | I.False -> "False" | I.Unknown -> "Unknown")
              (match truth with I.True -> "True" | I.False -> "False" | I.Unknown -> "Unknown"))
        ops)
    ops

(* The interval logic at the machine-integer edges: bounds one past the
   domain must not wrap into full-domain facts. *)
let test_interval_trap_boundaries () =
  check_verdict "X>=5 refutes X>max_int" I.False
    (Ir.Types.Ge, V 0, C 5)
    (Ir.Types.Gt, V 0, C max_int);
  check_verdict "X<=5 refutes X<min_int" I.False
    (Ir.Types.Le, V 0, C 5)
    (Ir.Types.Lt, V 0, C min_int);
  check_verdict "X<=min_int implies X=min_int" I.True
    (Ir.Types.Le, V 0, C min_int)
    (Ir.Types.Eq, V 0, C min_int);
  check_verdict "X>=max_int implies X=max_int" I.True
    (Ir.Types.Ge, V 0, C max_int)
    (Ir.Types.Eq, V 0, C max_int);
  check_verdict "X>=max_int refutes X<max_int" I.False
    (Ir.Types.Ge, V 0, C max_int)
    (Ir.Types.Lt, V 0, C max_int)

let suite =
  [
    Alcotest.test_case "exhaustive implication soundness" `Quick test_exhaustive_soundness;
    Alcotest.test_case "same-operands table: 36 pairs vs brute force" `Quick
      test_same_operands_exhaustive;
    Alcotest.test_case "interval logic at min_int/max_int" `Quick test_interval_trap_boundaries;
    Alcotest.test_case "paper's inferences are decided" `Quick test_paper_inferences;
  ]
