(** Fourier-Motzkin quantifier elimination over the ordered group of the
    rationals/reals: the effective form of Tarski QE for R_lin, and the
    engine behind the closure property of FO + LIN (outputs of FO + LIN
    queries on semi-linear databases are again semi-linear). *)

open Cqa_arith
open Cqa_logic

type optimizations = {
  mutable tightening : bool;
  mutable elim_pruning : bool;
  mutable absorption : bool;
}

val optimizations : optimizations
(** Toggles for the elimination-pipeline optimizations (parallel-atom
    tightening, satisfiability-based pruning of large conjunctions, and
    disjunct absorption); all are on by default, and turning them off
    restores textbook Fourier-Motzkin.  Exposed for the ablation
    benchmarks. *)

val eliminate_var : Var.t -> Linformula.conjunction -> Linformula.conjunction option
(** [eliminate_var x conj] is a conjunction equivalent to [exists x. conj];
    [None] when the result is unsatisfiable (trivially false).  Equalities
    involving [x] are substituted away first; otherwise lower and upper
    bounds are combined pairwise. *)

val eliminate_var_dnf : Var.t -> Linformula.dnf -> Linformula.dnf

val eliminate_all : Var.t list -> Linformula.dnf -> Linformula.dnf
(** Eliminates each variable in a greedy order minimizing the pairing
    blow-up. *)

val satisfiable_conj : Linformula.conjunction -> bool
(** Feasibility over the reals, decided by the exact simplex. *)

val satisfiable_conj_fm : Linformula.conjunction -> bool
(** The elimination-based decision ([satisfiable_conj] is an alias). *)

val satisfiable_conj_simplex : Linformula.conjunction -> bool
(** The same decision by the exact simplex: an independent oracle for
    cross-checking. *)

val tighten_parallel : Linformula.conjunction -> Linformula.conjunction
(** Keep only the tightest atom among parallel inequalities (same primitive
    linear part); syntactic, no satisfiability calls. *)

val satisfiable_dnf : Linformula.dnf -> bool

val complement_dnf : Linformula.dnf -> Linformula.dnf
(** DNF of the complement (exponential in the worst case). *)

val clear_qe_cache : unit -> unit
(** Drop the internal quantifier-elimination memo table and the
    conjunction-satisfiability memo (used by benchmarks to measure
    cold-cache behaviour). *)

val qe_cache_size : unit -> int
(** Number of memoized quantifier-elimination entries. *)

val set_qe_cache_capacity : int -> unit
(** Capacity above which the memo sheds half of its entries (default
    65536); exposed for tests.  @raise Invalid_argument below 2. *)

val qe : Linformula.t -> Linformula.dnf
(** Full quantifier elimination of a schema-free FO + LIN formula; the
    result is an equivalent quantifier-free DNF over the formula's free
    variables.  @raise Invalid_argument on schema atoms or active-domain
    quantifiers. *)

val sat : Linformula.t -> bool
(** Satisfiability of the existential closure. *)

val valid : Linformula.t -> bool
val equivalent : Linformula.t -> Linformula.t -> bool

val entails_conj : Linformula.conjunction -> Linconstr.t -> bool
(** Does the conjunction imply the atom? *)

val prune_redundant : Linformula.conjunction -> Linformula.conjunction
(** Remove atoms implied by the remaining ones (quadratic in FM-sat calls). *)

val sat_cache_size : unit -> int
(** Number of memoized conjunction-satisfiability verdicts (keyed on sorted
    interned-constraint tags; cleared by {!clear_qe_cache}). *)

val sample_point : Linformula.conjunction -> Q.t Var.Map.t option
(** A rational point satisfying the conjunction, when one exists.  Found by
    eliminating variables back to front and propagating midpoints. *)

val sample_point_dnf : Linformula.dnf -> Q.t Var.Map.t option

val witness : Linformula.t -> Q.t Var.Map.t option
(** Emptiness oracle with evidence: a rational point over the free
    variables satisfying the (schema-free FO + LIN) formula, [None] when
    the defined set is empty.  Free variables a sampled disjunct leaves
    unconstrained are pinned to zero, so the point is total.
    @raise Invalid_argument like {!qe}. *)

val difference_witness : Linformula.t -> Linformula.t -> Q.t Var.Map.t option
(** A point in [f] but not in [g] ([f /\ not g]), when one exists. *)

val equivalence_witness : Linformula.t -> Linformula.t -> Q.t Var.Map.t option
(** [None] iff the two formulas define the same set over their free
    variables; otherwise a point of the symmetric difference — the
    refutation evidence behind [Cqa_analysis.Equiv]. *)
