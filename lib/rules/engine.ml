(* The rule compiler and matcher.

   [compile] turns the catalog into a matcher indexed by the top operator:
   each rule is expanded into its commutative variants (see
   {!Pattern.variants}) and filed under its root [binop]/[unop], so a
   consult touches only the rules that could possibly apply. Matching is
   first-rule-wins in catalog order.

   Clients plug in through a {!subject}: a first-class view of their
   expression representation. The matcher never inspects client values
   directly — it asks the subject to [view] a node (constant, unop, binop,
   or opaque atom), to compare bindings, and to build the RHS. Builders
   return [option] so a shallow client (the LVN baseline, the oracle) can
   decline to materialize a compound RHS: the match is abandoned and the
   next rule is tried, which keeps one catalog serving clients of very
   different expressive power.

   Constant folding is not a catalog rule: when both operands view as
   constants the matcher folds through {!Ir.Types.fold_binop} before any
   rule is tried, and returns [None] when the fold would trap — so
   [6 / 0] stays an opaque expression for every client, with no special
   case anywhere else.

   The compiled table keeps no counts: the matcher tells the subject of
   each rewrite it returns ([fired]), so the table is an immutable value
   every domain shares, and a client that counts keeps its own tally (the
   GVN engine, in its run's [Run_stats]). *)

type 'a sview =
  | Sconst of int
  | Sunop of Ir.Types.unop * 'a
  | Sbinop of Ir.Types.binop * 'a * 'a
  | Satom

(* What made a rewrite: the catalog rule at an index of the compiled list,
   or the built-in constant folding. *)
type fire = Rule of int | Const_fold

type 'a subject = {
  view : 'a -> 'a sview;
  equal : 'a -> 'a -> bool;
  bconst : int -> 'a;
  bunop : Ir.Types.unop -> 'a -> 'a option;
  bbinop : Ir.Types.binop -> 'a -> 'a -> 'a option;
  reduce : 'a -> 'a option;
      (** map a freshly built compound RHS node to an atom usable as an
          operand of its parent (identity for clients whose builders
          already return atoms) *)
  fired : fire -> unit;
      (** told of every rewrite the matcher returns ([ignore] for clients
          that keep no counts) *)
}

type entry = {
  rule : Pattern.rule;
  variant : Pattern.pat;  (* one commutative expansion of [rule.lhs] *)
  nvars : int;
  ncvars : int;
  fire : fire;  (* the same for all variants of the rule *)
}

type t = {
  by_binop : entry list array;  (* indexed by {!binop_index} *)
  by_unop : entry list array;  (* indexed by {!unop_index} *)
}

let binop_index : Ir.Types.binop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let unop_index : Ir.Types.unop -> int = function Neg -> 0 | Lnot -> 1 | Bnot -> 2

let compile (rules : Pattern.rule list) : t =
  let by_binop = Array.make 10 [] and by_unop = Array.make 3 [] in
  List.iteri
    (fun ix (r : Pattern.rule) ->
      let nvars, ncvars = Pattern.arity r in
      List.iter
        (fun variant ->
          let e = { rule = r; variant; nvars; ncvars; fire = Rule ix } in
          match variant with
          | Pattern.Pbinop (op, _, _) ->
              let i = binop_index op in
              by_binop.(i) <- by_binop.(i) @ [ e ]
          | Pattern.Punop (op, _) ->
              let i = unop_index op in
              by_unop.(i) <- by_unop.(i) @ [ e ]
          | _ -> invalid_arg "Rules.Engine.compile: top of a pattern must be an operator")
        (Pattern.variants r))
    rules;
  { by_binop; by_unop }

(* ---------------- matching ---------------- *)

let rec pmatch s env cenv cset p x =
  match p with
  | Pattern.Pvar i -> (
      match env.(i) with
      | Some y -> s.equal x y
      | None ->
          env.(i) <- Some x;
          true)
  | Pattern.Pcvar i -> (
      match s.view x with
      | Sconst c ->
          if cset.(i) then cenv.(i) = c
          else begin
            cset.(i) <- true;
            cenv.(i) <- c;
            true
          end
      | _ -> false)
  | Pattern.Pconst n -> ( match s.view x with Sconst c -> c = n | _ -> false)
  | Pattern.Punop (op, p1) -> (
      match s.view x with
      | Sunop (op', y) -> op = op' && pmatch s env cenv cset p1 y
      | _ -> false)
  | Pattern.Pbinop (op, p1, p2) -> (
      match s.view x with
      | Sbinop (op', y, z) ->
          op = op' && pmatch s env cenv cset p1 y && pmatch s env cenv cset p2 z
      | _ -> false)

(* Build the RHS under the bindings. Inner compound nodes go through
   [s.reduce]; the top-level result is returned as built. *)
let rec build s env cenv ~top r =
  let built =
    match r with
    | Pattern.Rvar i -> env.(i)
    | Pattern.Rcvar i -> Some (s.bconst cenv.(i))
    | Pattern.Rconst n -> Some (s.bconst n)
    | Pattern.Rcfun (_, f) -> Some (s.bconst (f cenv))
    | Pattern.Runop (op, r1) -> Option.bind (build s env cenv ~top:false r1) (s.bunop op)
    | Pattern.Rbinop (op, r1, r2) ->
        Option.bind (build s env cenv ~top:false r1) (fun a ->
            Option.bind (build s env cenv ~top:false r2) (fun b -> s.bbinop op a b))
  in
  match (r, built) with
  | (Pattern.Runop _ | Pattern.Rbinop _), Some v when not top -> s.reduce v
  | _ -> built

let guard_ok (e : entry) cenv =
  match e.rule.Pattern.guard with None -> true | Some g -> g cenv

let fire (e : entry) s env cenv =
  match build s env cenv ~top:true e.rule.Pattern.rhs with
  | Some r ->
      s.fired e.fire;
      Some r
  | None -> None

let rewrite_binop t s op x y =
  match (s.view x, s.view y) with
  | Sconst a, Sconst b -> (
      match Ir.Types.fold_binop op a b with
      | Some c ->
          s.fired Const_fold;
          Some (s.bconst c)
      | None -> None (* would trap: leave the expression opaque *))
  | _ ->
      let rec try_entries = function
        | [] -> None
        | e :: rest -> (
            match e.variant with
            | Pattern.Pbinop (_, p1, p2) -> (
                let env = Array.make e.nvars None in
                let cenv = Array.make e.ncvars 0 in
                let cset = Array.make e.ncvars false in
                if
                  pmatch s env cenv cset p1 x
                  && pmatch s env cenv cset p2 y
                  && guard_ok e cenv
                then match fire e s env cenv with Some r -> Some r | None -> try_entries rest
                else try_entries rest)
            | _ -> try_entries rest)
      in
      try_entries t.by_binop.(binop_index op)

let rewrite_unop t s op x =
  match s.view x with
  | Sconst a ->
      s.fired Const_fold;
      Some (s.bconst (Ir.Types.eval_unop op a))
  | _ ->
      let rec try_entries = function
        | [] -> None
        | e :: rest -> (
            match e.variant with
            | Pattern.Punop (_, p1) -> (
                let env = Array.make e.nvars None in
                let cenv = Array.make e.ncvars 0 in
                let cset = Array.make e.ncvars false in
                if pmatch s env cenv cset p1 x && guard_ok e cenv then
                  match fire e s env cenv with Some r -> Some r | None -> try_entries rest
                else try_entries rest)
            | _ -> try_entries rest)
      in
      try_entries t.by_unop.(unop_index op)

(* The shared engine over {!Catalog.all}: the one rule table the GVN
   engine, the expression algebras, the baselines and the oracle consult.
   It is compiled once per process and never written after, so every
   domain reads it freely; fire counts belong to the subject, and the GVN
   engine's subject keeps them in its run's [Run_stats]. *)
let shared = compile Catalog.all
