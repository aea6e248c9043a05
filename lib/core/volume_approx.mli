(** Probabilistic approximation of query volumes (Theorem 4): an FO + POLY
    + SUM + W query draws a single sample of [M = max (4/eps log 2/delta,
    C log|D| / eps log 13/eps)] points with the witness operator and
    reports, for every parameter tuple simultaneously, the fraction of the
    sample falling in the section -- within [eps] of the true volume with
    probability [1 - delta], uniformly in the parameters.

    This module only builds [Eval]'s environments for the membership
    oracle; sampling, scoring and the sample size are
    {!Cqa_vc.Approx_volume} and {!Cqa_vc.Bounds}.  [?domains] (default
    [1]) is passed through: runs are reproducible for a fixed seed and
    domain count. *)

open Cqa_arith
open Cqa_logic
open Cqa_vc

val member : Db.t -> Var.t array -> Ast.formula -> Q.t array -> bool
(** The pointwise membership oracle every estimator scores with:
    [Eval.holds] of the formula with [yvars] bound to the point. *)

val approx_query :
  ?domains:int ->
  prng:Prng.t ->
  m:int ->
  Db.t ->
  yvars:Var.t array ->
  Ast.formula ->
  Q.t
(** Estimate [VOL_I { y | phi (y) }] with [m] pointwise membership tests. *)

val approx_query_family :
  ?domains:int ->
  prng:Prng.t ->
  m:int ->
  Db.t ->
  xvars:Var.t array ->
  yvars:Var.t array ->
  Ast.formula ->
  params:Q.t array list ->
  (Q.t array * Q.t) list
(** The uniform-over-parameters shape of Theorem 4: one shared sample scored
    against [phi (a, .)] for every [a] in [params]. *)
