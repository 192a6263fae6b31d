(* A light type discipline over the integer IR. Every value is an integer,
   but a useful refinement is whether it is provably boolean (always 0 or
   1): comparisons, logical not, 0/1 constants, bitwise combinations of
   booleans, and φs joining booleans. The lattice is Bot < Bool < Int; φs
   make the inference a (two-iteration-height) fixpoint.

   The checks that fall out:
   - [Param k] must name one of the routine's parameters;
   - an opaque tag should be applied at one arity throughout (the frontend
     derives tags from callee names, so mixed arity means two different
     calls were conflated);
   - a switch scrutinized value of type Bool makes any case constant
     outside {0, 1} dead. *)

open Ir.Func

type ty = Bot | Bool | Int

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Bool, Bool -> Bool
  | _ -> Int

let le_bool = function Bot | Bool -> true | Int -> false

let infer (f : Ir.Func.t) : ty array =
  let ni = num_instrs f in
  let tys = Array.make ni Bot in
  let ty_of v = if v >= 0 && v < ni then tys.(v) else Int in
  let transfer = function
    | Const n -> if n = 0 || n = 1 then Bool else Int
    | Param _ | Opaque _ -> Int
    | Cmp _ | Unop (Ir.Types.Lnot, _) -> Bool
    | Unop _ -> Int
    | Binop (op, a, b) -> (
        match op with
        | Ir.Types.And | Ir.Types.Or | Ir.Types.Xor | Ir.Types.Mul
          when le_bool (ty_of a) && le_bool (ty_of b) ->
            Bool
        | _ -> Int)
    | Phi args -> Array.fold_left (fun acc v -> join acc (ty_of v)) Bot args
    | Jump | Branch _ | Switch _ | Return _ -> Bot
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to ni - 1 do
      let t = join tys.(i) (transfer (instr f i)) in
      if t <> tys.(i) then begin
        tys.(i) <- t;
        changed := true
      end
    done
  done;
  tys

let run (f : Ir.Func.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tys = infer f in
  let arity_of_tag : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Param k ->
          if k < 0 || k >= f.nparams then
            add
              (Diagnostic.error ~check:"type-param-range" ~loc:(Diagnostic.Instr i)
                 "v%d reads parameter %d of a %d-parameter routine" i k f.nparams)
      | Opaque (tag, args) -> (
          let arity = Array.length args in
          match Hashtbl.find_opt arity_of_tag tag with
          | None -> Hashtbl.add arity_of_tag tag (arity, i)
          | Some (a, first) ->
              if a <> arity then
                add
                  (Diagnostic.warning ~check:"type-opaque-arity" ~loc:(Diagnostic.Instr i)
                     "opaque#%d applied to %d arguments at v%d but %d at v%d" tag arity i a
                     first))
      | Switch (v, cases) ->
          if v >= 0 && v < num_instrs f && tys.(v) = Bool then
            Array.iter
              (fun k ->
                if k <> 0 && k <> 1 then
                  add
                    (Diagnostic.warning ~check:"type-switch-case-dead" ~loc:(Diagnostic.Instr i)
                       "switch scrutinee v%d is boolean, so case %d can never be taken" v k))
              cases
      | _ -> ())
    f.instrs;
  List.rev !diags
