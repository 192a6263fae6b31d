(* The front door of the verifier/linter library: run the checkers in
   dependency order (structure first — the SSA and type checkers walk the
   CFG and would be meaningless, or unsafe, on a function whose edge tables
   lie), collect structured diagnostics, and offer the raise-on-error entry
   point the legacy callers expect. *)

module Diagnostic = Diagnostic
module Cfg = Cfg_check
module Ssa = Ssa_check
module Ty = Type_check
module Lint = Lint
module Schedule = Schedule_check

let errors ds = List.filter Diagnostic.is_error ds
let has_errors ds = List.exists Diagnostic.is_error ds
let sort ds = List.stable_sort Diagnostic.compare ds

let run_all ?(lint = false) (f : Ir.Func.t) : Diagnostic.t list =
  let cfg = Cfg_check.run f in
  if has_errors cfg then cfg
  else
    let ssa = Ssa_check.run f in
    if has_errors ssa then cfg @ ssa
    else cfg @ ssa @ Type_check.run f @ (if lint then Lint.run f else [])

let check_exn (f : Ir.Func.t) : Ir.Func.t =
  match errors (run_all f) with
  | [] -> f
  | d :: _ -> failwith (Fmt.str "%s: %a" f.Ir.Func.name Diagnostic.pp d)

let pp_report ppf (name, ds) =
  match ds with
  | [] -> Fmt.pf ppf "%s: clean@." name
  | ds -> List.iter (fun d -> Fmt.pf ppf "%s: %a@." name Diagnostic.pp d) (sort ds)
