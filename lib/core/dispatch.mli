(** Static dispatch hints: the contract between the static analyzer
    ({!Cqa_analysis.Fragment} in [lib/analysis]) and the evaluation engines.

    The analyzer classifies a query's fragment once, before any evaluation;
    the resulting hint tells {!Eval} and {!Volume_exact} which engine is
    guaranteed to apply, so provably semi-linear queries go straight to the
    Theorem 3 exact engine instead of discovering linear-reducibility by a
    runtime probe (attempting the reduction and catching
    [Eval.Unsupported]). *)

type hint =
  | Exact_semilinear
      (** Provably linear-reducible after polynomial normalization: every
          atom is FO + LIN modulo [Mpoly] normalization, every summation
          sub-term is closed, and (when classified against a database) no
          relation is semi-algebraic.  [Eval.eval_set] cannot raise
          [Unsupported] and the Theorem 3 engine applies. *)
  | Pointwise_poly
      (** Genuinely polynomial atoms (or a semi-algebraic relation):
          pointwise truth and the Theorem 4 sampling estimators apply, the
          symbolic linear path does not. *)
  | Sum_eval
      (** Open summation terms: only the summation-aware term evaluator
          applies. *)

val to_string : hint -> string
(** ["exact-semilinear"], ["pointwise-poly"], ["sum-eval"]. *)

val pp : Format.formatter -> hint -> unit

(** {1 Cost profile and budget-guarded engine decision}

    The second half of the contract: a syntactic cost profile of the query
    and the worst-case projections derived from it (the Section 3 model of
    quantifier-elimination blowup), used by {!Exec.volume_guarded} (the
    verdict is stored in the plan) to degrade from the Theorem 3 exact
    engine to the Theorem 4 sampling estimator when exact evaluation is
    about to explode.  The analysis layer's cost pass
    ([Cqa_analysis.Cost]) reports the same numbers, so the static
    diagnostics and the runtime guard can never disagree. *)

type cost_profile = {
  atoms : int;  (** atomic subformulae, [Rel] and [Cmp] *)
  quantifiers : int;  (** [Exists] / [Forall] nodes *)
  sum_count : int;  (** [Sum] nodes, nested included *)
  tuple_width : int;  (** total summation tuple width over all sums *)
}

val zero_profile : cost_profile

val add_profile : cost_profile -> cost_profile -> cost_profile
(** Componentwise sum. *)

val profile_formula : Ast.formula -> cost_profile

val profile_term : Ast.term -> cost_profile

val projected_qe_atoms : cost_profile -> float
(** Worst-case constraint count after eliminating every quantifier by
    Fourier-Motzkin: [m -> m^2/4] per eliminated variable, starting from
    [max 2 atoms], saturating near [1e150]. *)

val projected_sum_points : endpoints:int -> cost_profile -> float
(** Naive summation enumerates the END endpoint grid:
    [endpoints ^ tuple_width] index points ([0.] when the query has no
    summation). *)

val default_budget : float
(** [infinity]: by default nothing is guarded and every query runs on the
    engine its hint (or runtime probe) selects. *)

type decision =
  | Run_exact
  | Fallback_approx of { projected : float; budget : float }
      (** the projected cost that tripped the guard, and the budget it was
          compared against *)

val pp_decision : Format.formatter -> decision -> unit
(** ["run-exact"], or ["fallback-approx (projected P > budget B)"]. *)

val decide : ?endpoints:int -> ?budget:float -> cost_profile -> decision
(** Compare [max (projected_qe_atoms p) (projected_sum_points p)] against
    [budget] (default {!default_budget}; [endpoints] defaults to [8],
    matching the cost pass).  Strictly over budget means fall back. *)

val kernel_name : unit -> string
(** ["filtered"] or ["exact"] — the active numeric kernel
    ({!Cqa_linear.Flatrow}), for stats lines and bench ablation labels.
    Label-only by design: the filtered kernel produces byte-identical
    results, so it never influences {!decide}. *)
