module Ast = Ir.Ast

(* The paper's Figure 9: the worst case of value inference. A ladder of n
   nested equality guards I1 = I2, I2 = I3, …; discovering the congruence
   under the innermost guard makes every value-inference walk of the
   paper climb the whole dominator chain, for O(n²) total work. The
   engine walks only for values some edge Eq fact names, at most one
   visit per rung. *)

let ladder n : Ast.routine =
  let var k = Printf.sprintf "i%d" k in
  let defs =
    List.init n (fun k ->
        Ast.Sassign (var (k + 1), Ast.Ecall ("f0", [ Ast.Enum (k + 1) ])))
  in
  (* [k] is the target: under the guard chain, j = i_n + 1 is congruent to
     k = i_1 + 1, and discovering it costs a full dominator-chain walk. *)
  let innermost =
    [ Ast.Sassign ("j", Ast.Ebinop (Ir.Types.Add, Ast.Evar (var n), Ast.Enum 1)) ]
  in
  let rec nest k body =
    if k >= n then body
    else
      [
        Ast.Sif
          (Ast.Ecmp (Ir.Types.Eq, Ast.Evar (var k), Ast.Evar (var (k + 1))), nest (k + 1) body, []);
      ]
  in
  {
    Ast.name = Printf.sprintf "ladder%d" n;
    params = [];
    body =
      defs
      @ [
          Ast.Sassign ("j", Ast.Enum 0);
          Ast.Sassign ("k", Ast.Ebinop (Ir.Types.Add, Ast.Evar (var 1), Ast.Enum 1));
        ]
      @ nest 1 innermost
      @ [ Ast.Sreturn (Ast.Ebinop (Ir.Types.Sub, Ast.Evar "j", Ast.Evar "k")) ];
  }

let ladder_func n = Ssa.Construct.of_cir (Ir.Lower.lower_routine (ladder n))

(* n nested [if (a > k)] guards around [r = r + 1]: three blocks per
   guard, whose edges become reachable in RPO order, so touch
   propagation's cost per edge shows up directly in the driver's time. *)
let guard_nest n : Ast.routine =
  let rec nest k =
    if k > n then [ Ast.Sassign ("r", Ast.Ebinop (Ir.Types.Add, Ast.Evar "r", Ast.Enum 1)) ]
    else [ Ast.Sif (Ast.Ecmp (Ir.Types.Gt, Ast.Evar "a", Ast.Enum k), nest (k + 1), []) ]
  in
  {
    Ast.name = Printf.sprintf "guard%d" n;
    params = [ "a" ];
    body = (Ast.Sassign ("r", Ast.Enum 0) :: nest 1) @ [ Ast.Sreturn (Ast.Evar "r") ];
  }

let guard_nest_func n = Ssa.Construct.of_cir (Ir.Lower.lower_routine (guard_nest n))
