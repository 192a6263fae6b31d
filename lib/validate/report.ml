(* Aggregation of validation results across a pipeline run: one entry per
   validated pass instance, with the time the validation itself cost (the
   overhead the bench harness reports alongside pass time). *)

type pass = {
  pass : string;  (* pass instance name, e.g. "gvn#1" *)
  seconds : float;  (* validation overhead for this pass *)
  audit : Audit.report option;  (* Engine 1, when witnesses were audited *)
  equiv : Equiv.report option;  (* Engine 2, when behavior was compared *)
}

type t = { passes : pass list }

let empty = { passes = [] }
let add t p = { passes = t.passes @ [ p ] }

let pass_diagnostics p =
  (match p.audit with Some a -> a.Audit.diagnostics | None -> [])
  @ (match p.equiv with Some e -> Equiv.diagnostics e | None -> [])

let diagnostics t = List.concat_map pass_diagnostics t.passes
let errors t = List.filter Check.Diagnostic.is_error (diagnostics t)
let clean t = errors t = []
let overhead_seconds t = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 t.passes

type totals = {
  witnesses : int;
  certified : int;
  unproven : int;
  rejected : int;
  equiv_runs : int;
  mismatches : int;
}

let totals t =
  List.fold_left
    (fun acc p ->
      let acc =
        match p.audit with
        | None -> acc
        | Some a ->
            {
              acc with
              witnesses = acc.witnesses + a.Audit.total;
              certified = acc.certified + a.Audit.certified;
              unproven = acc.unproven + a.Audit.unproven;
              rejected = acc.rejected + a.Audit.rejected;
            }
      in
      match p.equiv with
      | None -> acc
      | Some e ->
          {
            acc with
            equiv_runs = acc.equiv_runs + e.Equiv.runs;
            mismatches = acc.mismatches + List.length e.Equiv.mismatches;
          })
    { witnesses = 0; certified = 0; unproven = 0; rejected = 0; equiv_runs = 0; mismatches = 0 }
    t.passes

let pp_summary ppf t =
  let s = totals t in
  Fmt.pf ppf "%d witnesses: %d certified, %d precision wins, %d rejected | %d equiv runs, %d mismatches"
    s.witnesses s.certified s.unproven s.rejected s.equiv_runs s.mismatches
