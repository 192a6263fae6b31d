(** Configuration of the GVN engine: value-numbering mode, per-analysis
    switches (§1.3), sparse/dense formulation (§5, Table 2), the
    practical/complete variant (§2), and the §2.9 emulation presets. *)

type mode =
  | Optimistic  (** only the entry reachable, all values congruent (⊤) *)
  | Balanced  (** optimistic reachability, pessimistic congruence; 1 pass *)
  | Pessimistic  (** everything reachable, values congruent to self; 1 pass *)

type variant =
  | Practical  (** static dominator tree + RPO-downstream touching *)
  | Complete  (** incremental reachable dominator tree *)

type t = {
  mode : mode;
  variant : variant;
  sparse : bool;  (** false: brute-force retouching of the whole routine *)
  constant_folding : bool;
  algebraic_simplification : bool;
  rules : bool;
      (** consult the declarative rule catalog (lib/rules) during algebraic
          simplification; with it off, simplification is constant folding
          and commutative canonicalization only *)
  unreachable_code : bool;  (** conditional reachability of edges *)
  reassociation : bool;  (** global reassociation / forward propagation *)
  predicate_inference : bool;
  value_inference : bool;
  phi_predication : bool;
  pred_closure : bool;
      (** extension: fall back to the lib/pred multi-fact implication
          closure (congruence + difference bounds over the whole
          dominating-fact conjunction) when single-fact predicate
          inference fails; off by default *)
  sccp_only : bool;  (** §2.9: non-constant expressions collapse to Self *)
  propagation_limit : int;  (** operand bound cancelling forward propagation *)
  phi_distribution : bool;
      (** §6 extension: distribute operations over φs (captures the
          Rüthing–Knoop–Steffen congruences of Figure 14); off by default *)
}

val full : t
(** The paper's full practical algorithm: optimistic, sparse, every
    analysis enabled. *)

val full_extended : t
(** {!full} plus the op-of-φ distribution extension. *)

val balanced : t
val pessimistic : t

val basic : t
(** Table 2's "basic": reassociation, predicate inference, value inference
    and φ-predication disabled. *)

val dense : t
(** {!full} with the sparse formulation disabled. *)

val emulate_awz : t
(** §2.9: optimistic value numbering only — the Alpern–Wegman–Zadeck /
    Simpson RPO / Simpson SCC result. *)

val emulate_click : t
(** §2.9: + constant folding, algebraic simplification and unreachable-code
    elimination — Click's strongest algorithm. *)

val emulate_sccp : t
(** §2.9: + non-constant expressions replaced by the defining value —
    Wegman–Zadeck sparse conditional constant propagation (on top of the
    Click feature set, as the paper defines the emulation). *)

val emulate_sccp_exact : t
(** Bit-exact Wegman–Zadeck (constant folding and reachability only);
    matches the independent [Baselines.Sccp] implementation. *)
