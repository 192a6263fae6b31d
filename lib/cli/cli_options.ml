(* Shared CLI option wiring: gvnopt's cmdliner converters and bench's
   hand-rolled argv loop both resolve presets, toggles and observability
   flags through this module, so the two binaries cannot drift. *)

(* ------------------------------------------------------------------ *)
(* GVN presets.                                                        *)

let presets =
  [
    ("full", Pgvn.Config.full);
    ("balanced", Pgvn.Config.balanced);
    ("pessimistic", Pgvn.Config.pessimistic);
    ("basic", Pgvn.Config.basic);
    ("dense", Pgvn.Config.dense);
    ("click", Pgvn.Config.emulate_click);
    ("sccp", Pgvn.Config.emulate_sccp);
    ("awz", Pgvn.Config.emulate_awz);
  ]

let preset_names = List.map fst presets
let preset_doc = String.concat ", " preset_names

let preset_of_string s =
  match List.assoc_opt s presets with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown preset %S (%s)" s preset_doc)

(* ------------------------------------------------------------------ *)
(* Per-analysis toggles.                                               *)

type toggles = {
  complete : bool;
  no_reassociation : bool;
  no_predicate_inference : bool;
  no_value_inference : bool;
  no_phi_predication : bool;
  no_sparse : bool;
}

let no_toggles =
  {
    complete = false;
    no_reassociation = false;
    no_predicate_inference = false;
    no_value_inference = false;
    no_phi_predication = false;
    no_sparse = false;
  }

let apply_toggles t (preset : Pgvn.Config.t) =
  {
    preset with
    Pgvn.Config.variant =
      (if t.complete then Pgvn.Config.Complete else preset.Pgvn.Config.variant);
    reassociation = preset.Pgvn.Config.reassociation && not t.no_reassociation;
    predicate_inference =
      preset.Pgvn.Config.predicate_inference && not t.no_predicate_inference;
    value_inference = preset.Pgvn.Config.value_inference && not t.no_value_inference;
    phi_predication = preset.Pgvn.Config.phi_predication && not t.no_phi_predication;
    sparse = preset.Pgvn.Config.sparse && not t.no_sparse;
  }

(* ------------------------------------------------------------------ *)
(* SSA pruning.                                                        *)

let pruning_of_string = function
  | "minimal" -> Ok Ssa.Construct.Minimal
  | "semi" | "semi-pruned" -> Ok Ssa.Construct.Semi_pruned
  | "pruned" -> Ok Ssa.Construct.Pruned
  | s -> Error (Printf.sprintf "unknown pruning %S (minimal, semi, pruned)" s)

(* ------------------------------------------------------------------ *)
(* Observability flags.                                                *)

type obs_opts = { trace_file : string option; metrics : bool }

let no_obs = { trace_file = None; metrics = false }

let parse_obs_args args =
  let rec go acc rest = function
    | [] -> (acc, List.rev rest)
    | "--metrics" :: tl -> go { acc with metrics = true } rest tl
    | "--trace" :: file :: tl -> go { acc with trace_file = Some file } rest tl
    | a :: tl when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
        go { acc with trace_file = Some (String.sub a 8 (String.length a - 8)) } rest tl
    | a :: tl -> go acc (a :: rest) tl
  in
  go no_obs [] args

let wants o = o.trace_file <> None || o.metrics

let obs_of o = if wants o then Some (Obs.create ()) else None

let finish o obs =
  match obs with
  | None -> ()
  | Some ctx ->
      (match o.trace_file with
      | Some path -> Obs.write_chrome ctx path
      | None -> ());
      if o.metrics then Fmt.pr "--- metrics ---@.%a@?" Obs.pp_metrics ctx
