(* Front door of the sparse abstract-interpretation framework (the static
   analysis layer beside lib/check's structural verifier and lib/validate's
   dynamic translation validation):

   - {!Domain}: the [LATTICE]/[TRANSFER] functor contracts;
   - {!Sparse}: the Wegman–Zadeck-style two-worklist engine, refined by
     the branch-edge facts of [Pred.Facts];
   - {!Itv}/{!Ranges}: signed intervals with widening at loop headers;
   - {!Konst}/{!Consts}: SCCP constants extended with copies;
   - {!Crosscheck}: static replay of a GVN run's decided branches and
     φ-predicate inferences against interval facts. *)

module Domain = Domain
module Itv = Itv
module Konst = Konst
module Sparse = Sparse
module Ranges = Ranges
module Consts = Consts
module Crosscheck = Crosscheck
