(* The pre-SSA IR: a CFG whose instructions assign to mutable registers.
   The mini-C frontend and the random workload generator both produce [Cir];
   {!Ssa.Construct} turns it into a {!Func.t}.

   Registers [0 .. nparams-1] hold the routine parameters on entry; all other
   registers read as 0 until first assigned. *)

type reg = int

type rinstr =
  | Iconst of reg * int
  | Imov of reg * reg
  | Iunop of reg * Types.unop * reg
  | Ibinop of reg * Types.binop * reg * reg
  | Icmp of reg * Types.cmp * reg * reg
  | Iopaque of reg * int * reg list

type term =
  | Tjump of int
  | Tbranch of reg * int * int (* cond, true target, false target *)
  | Tswitch of reg * (int * int) array * int (* scrutinee, (case, target), default *)
  | Treturn of reg

type block = { body : rinstr array; term : term }
type t = { name : string; nparams : int; nregs : int; blocks : block array }

let entry = 0
let num_blocks t = Array.length t.blocks

let successors blk =
  match blk.term with
  | Tjump d -> [| d |]
  | Tbranch (_, a, b) -> [| a; b |]
  | Tswitch (_, cases, default) ->
      Array.append (Array.map snd cases) [| default |]
  | Treturn _ -> [||]

let succ_blocks t = Array.map successors t.blocks

let def_of_rinstr = function
  | Iconst (d, _) | Imov (d, _) | Iunop (d, _, _) | Ibinop (d, _, _, _) | Icmp (d, _, _, _)
  | Iopaque (d, _, _) ->
      d

let iter_uses_rinstr g = function
  | Iconst _ -> ()
  | Imov (_, s) | Iunop (_, _, s) -> g s
  | Ibinop (_, _, a, b) | Icmp (_, _, a, b) ->
      g a;
      g b
  | Iopaque (_, _, args) -> List.iter g args

let iter_uses_term g = function
  | Tjump _ -> ()
  | Tbranch (c, _, _) | Tswitch (c, _, _) | Treturn c -> g c

(* Drop blocks not structurally reachable from the entry, remapping ids. *)
let prune_unreachable t =
  let n = num_blocks t in
  let reach = Array.make n false in
  let rec dfs b =
    if not reach.(b) then begin
      reach.(b) <- true;
      Array.iter dfs (successors t.blocks.(b))
    end
  in
  dfs entry;
  if Array.for_all Fun.id reach then t
  else begin
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for b = 0 to n - 1 do
      if reach.(b) then begin
        remap.(b) <- !next;
        incr next
      end
    done;
    let map_term = function
      | Tjump d -> Tjump remap.(d)
      | Tbranch (c, a, b) -> Tbranch (c, remap.(a), remap.(b))
      | Tswitch (c, cases, d) ->
          Tswitch (c, Array.map (fun (k, t) -> (k, remap.(t))) cases, remap.(d))
      | Treturn r -> Treturn r
    in
    let blocks = Array.make !next { body = [||]; term = Treturn 0 } in
    for b = 0 to n - 1 do
      if reach.(b) then
        blocks.(remap.(b)) <- { body = t.blocks.(b).body; term = map_term t.blocks.(b).term }
    done;
    { t with blocks }
  end

(* Reference interpreter over registers, for cross-checking SSA construction:
   [Ssa.Construct] must preserve this semantics exactly. *)
let run ?(fuel = 100_000) t (args : int array) : Interp.result =
  let regs = Array.make (max 1 t.nregs) 0 in
  (* Only the parameter registers receive arguments; everything else reads
     0 until assigned (extra arguments are ignored, as in Interp). *)
  Array.iteri (fun i v -> if i < t.nparams then regs.(i) <- v) args;
  let exception Trapped in
  let eval = function
    | Iconst (d, n) -> regs.(d) <- n
    | Imov (d, s) -> regs.(d) <- regs.(s)
    | Iunop (d, op, s) -> regs.(d) <- Types.eval_unop op regs.(s)
    | Ibinop (d, op, a, b) -> (
        match Types.eval_binop op regs.(a) regs.(b) with
        | n -> regs.(d) <- n
        | exception Types.Division_by_zero -> raise Trapped)
    | Icmp (d, op, a, b) -> regs.(d) <- Types.eval_cmp op regs.(a) regs.(b)
    | Iopaque (d, tag, rargs) ->
        regs.(d) <- Interp.opaque_model tag (Array.of_list (List.map (fun r -> regs.(r)) rargs))
  in
  let fuel_left = ref fuel in
  let rec exec b =
    let blk = t.blocks.(b) in
    let rec body i =
      if !fuel_left <= 0 then Interp.Timeout
      else if i < Array.length blk.body then begin
        decr fuel_left;
        eval blk.body.(i);
        body (i + 1)
      end
      else begin
        decr fuel_left;
        match blk.term with
        | Tjump d -> exec d
        | Tbranch (c, a, bf) -> exec (if regs.(c) <> 0 then a else bf)
        | Tswitch (c, cases, default) ->
            let target = ref default in
            Array.iter (fun (k, t) -> if regs.(c) = k then target := t) cases;
            exec !target
        | Treturn r -> Interp.Ret regs.(r)
      end
    in
    if !fuel_left <= 0 then Interp.Timeout else body 0
  in
  match exec entry with r -> r | exception Trapped -> Interp.Trap

let pp_rinstr ppf = function
  | Iconst (d, n) -> Fmt.pf ppf "r%d = %d" d n
  | Imov (d, s) -> Fmt.pf ppf "r%d = r%d" d s
  | Iunop (d, op, s) -> Fmt.pf ppf "r%d = %sr%d" d (Types.string_of_unop op) s
  | Ibinop (d, op, a, b) -> Fmt.pf ppf "r%d = r%d %s r%d" d a (Types.string_of_binop op) b
  | Icmp (d, op, a, b) -> Fmt.pf ppf "r%d = r%d %s r%d" d a (Types.string_of_cmp op) b
  | Iopaque (d, tag, args) ->
      Fmt.pf ppf "r%d = opaque#%d(%a)" d tag
        Fmt.(list ~sep:(any ", ") (fun ppf r -> pf ppf "r%d" r))
        args

let pp ppf t =
  Fmt.pf ppf "routine %s (%d params, %d regs)@\n" t.name t.nparams t.nregs;
  Array.iteri
    (fun b blk ->
      Fmt.pf ppf "b%d:@\n" b;
      Array.iter (fun i -> Fmt.pf ppf "  %a@\n" pp_rinstr i) blk.body;
      (match blk.term with
      | Tjump d -> Fmt.pf ppf "  jump b%d@\n" d
      | Tbranch (c, a, f) -> Fmt.pf ppf "  branch r%d, b%d, b%d@\n" c a f
      | Tswitch (c, cases, d) ->
          Fmt.pf ppf "  switch r%d [%a] default b%d@\n" c
            Fmt.(array ~sep:(any "; ") (fun ppf (k, t) -> pf ppf "%d: b%d" k t))
            cases d
      | Treturn r -> Fmt.pf ppf "  return r%d@\n" r))
    t.blocks
