(** Probabilistic approximation of query volumes (Theorem 4): an FO + POLY
    + SUM + W query draws a single sample of [M = max (4/eps log 2/delta,
    C log|D| / eps log 13/eps)] points with the witness operator and
    reports, for every parameter tuple simultaneously, the fraction of the
    sample falling in the section -- within [eps] of the true volume with
    probability [1 - delta], uniformly in the parameters.

    This module owns the membership oracle every query estimate scores
    with; sampling, scoring and the sample size are
    {!Cqa_vc.Approx_volume} and {!Cqa_vc.Bounds}.  [?domains] (default
    [1]) is passed through: runs are reproducible for a fixed seed and
    domain count. *)

open Cqa_arith
open Cqa_logic
open Cqa_vc

type t
(** A formula compiled against a database into a membership oracle
    (DESIGN.md §15).  Semi-linear relations are inlined as flat
    per-disjunct coefficient rows and polynomial comparisons become
    expanded straight-line double code; each atom is decided by its
    double value when that lies beyond an a-priori error bound, and in
    exact rational arithmetic otherwise, so every answer equals
    [Eval.holds].  Atoms with summation terms, other relations and
    quantified subformulas are decided by [Eval.holds] itself.  With
    {!Cqa_linear.Flatrow.enabled} off ([CQA_KERNEL=exact]) at compile
    time every atom is decided exactly.  The oracle reflects the
    database as it was when compiled; it is immutable and safe to share
    across domains.  Ticks [vc.filter.sure] / [vc.filter.fallback] per
    atom decision on a sample point. *)

val compile :
  ?params:Var.t array * Q.t array -> Db.t -> Var.t array -> Ast.formula -> t
(** [compile ~params:(xvars, a) db yvars f]: the oracle for [f] with the
    sample coordinates bound to [yvars] (a later duplicate wins) and the
    parameters [xvars] bound to [a]. *)

val test : t -> int array -> int -> bool
(** [test o ks j]: membership of point [j] of a flat
    {!Cqa_vc.Approx_volume.sample_points} sample [ks]. *)

val member : Db.t -> Var.t array -> Ast.formula -> Q.t array -> bool
(** [member db yvars f]: the compiled oracle at rational points (decided
    exactly atom by atom): [Eval.holds] of the formula with [yvars] bound
    to the point. *)

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
    against [phi (a, .)] for every [a] in [params], the oracle compiled
    once per parameter value. *)
