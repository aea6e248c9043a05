(** Exact volume of semi-linear sets: the effective content of the paper's
    Theorem 3 (FO + POLY + SUM computes VOL of semi-linear databases).

    Two independent algorithms are provided and cross-checked in the tests:

    - [volume_sweep] follows the paper's inductive proof: the measure of the
      section at [x_n = t] is a piecewise-polynomial function of [t] of
      degree below the dimension; its breakpoints are among the last
      coordinates of the vertices of the hyperplane arrangement, the
      polynomial pieces are recovered by exact interpolation at rational
      sample points ({!section_pieces}), and the pieces are integrated in
      closed form (the paper's "sum over quadruples (l, u, m, b)" in
      dimension 2 is the degree-1 case);
    - [volume_incl_excl] decomposes the DNF by inclusion-exclusion into
      intersections of convex polytopes and evaluates each with Lasserre's
      recursion. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_poly

exception Unbounded

(** {1 Lemma 5 pieces} *)

type piece = {
  lo : Q.t;
  hi : Q.t;
  poly : Upoly.t;  (** the section volume on the open interval (lo, hi) *)
}

val section_pieces :
  ?domains:int ->
  ?reuse:(Q.t -> Q.t -> Upoly.t option) ->
  Semilinear.t ->
  Q.t list ->
  piece list
(** [section_pieces s bps]: the section volume [t -> vol (section_last s
    t)] on each open interval [(a, b)] between consecutive breakpoints of
    [bps] (normally {!breakpoints}[ s]), recovered by exact interpolation
    at the [dim s] interior points [a + (j + 1) (b - a) / (dim s + 1)].
    An interval for which [reuse a b] returns a polynomial keeps it and
    costs no section.  The sections are one parallel batch over
    [?domains] (default 1); the result is identical for every domain
    count.  The single builder behind {!volume_sweep} and
    {!Volume_param}. *)

val integrate : piece list -> Q.t
(** Sum of the closed-form integrals of the pieces. *)

(** {1 Volumes} *)

val volume_sweep : ?domains:int -> Semilinear.t -> Q.t
(** [?domains] (default 1) spreads the top-level interpolation sections
    over that many OCaml domains; the result is byte-identical for every
    domain count (slot-order reassembly, exact arithmetic).
    @raise Unbounded when the set has infinite measure (strict/equality
    atoms are relaxed: measure is closure-invariant). *)

val volume_incl_excl : ?domains:int -> Semilinear.t -> Q.t
(** @raise Unbounded likewise.  Exponential in the number of disjuncts;
    [?domains] chunks the signed intersection terms. *)

val volume : ?domains:int -> Semilinear.t -> Q.t
(** The default algorithm ([volume_sweep]). *)

val volume_clamped : ?domains:int -> Semilinear.t -> Q.t
(** [VOL_I]: volume of the intersection with the unit cube; always finite. *)

exception Not_semilinear of string

val volume_of_query :
  ?domains:int -> ?hint:Dispatch.hint -> Db.t -> Var.t array -> Ast.formula -> Q.t
(** Exact volume of the set defined by a query over a semi-linear database:
    the Theorem 3 engine applied to [Eval.eval_set], with no plan, cache or
    rewrite in between.  Queries are served by {!Exec.volume} on a compiled
    plan; this is the reference that path is tested against.

    Without [?hint], linear-reducibility is discovered by the runtime probe
    ([Eval.try_eval_set], observable through [Eval.runtime_probes]).  With
    [?hint:Dispatch.Exact_semilinear] — produced by the static analyzer's
    fragment pass — the probe is skipped and evaluation goes straight to the
    exact engine; a hint of [Pointwise_poly] or [Sum_eval] rejects the query
    immediately.
    @raise Not_semilinear when the query is outside the exact fragment.
    @raise Unbounded when the defined set has infinite measure. *)

(** {1 Guarded results}

    The result type of {!Exec.volume_guarded}, the cost-guarded entry
    point, and the one-shot Theorem 4 estimator its fallback is checked
    against. *)

type engine =
  | Exact_engine  (** Theorem 3 sweep, exact rational result *)
  | Approx_engine of { sample_size : int }
      (** Theorem 4 sampling estimate from a Blumer-sized sample *)

type guarded = {
  value : Q.t;  (** [VOL_I] of the defined set, exact or estimated *)
  engine : engine;
  projected : float;  (** [Dispatch.projected_qe_atoms] of the query *)
  budget : float;  (** the budget the projection was compared against *)
}

val pp_engine : Format.formatter -> engine -> unit

val sampler_size : eps:float -> delta:float -> Var.t array -> int
(** The Blumer sample size [M] for a query over these coordinates: VC
    dimension [dim + 2].
    @raise Invalid_argument unless [eps] and [delta] lie in (0, 1). *)

val sampler_draw :
  ?domains:int ->
  seed:int ->
  m:int ->
  Db.t ->
  Var.t array ->
  Ast.formula ->
  int array * Bytes.t
(** The [m] points {!Cqa_vc.Approx_volume.sample_points} draws from a
    PRNG freshly seeded with [seed] (flat [2^53]-numerators), and their
    membership bitmap for the query under {!Volume_approx.compile}'s
    oracle. *)

val sampler_estimate :
  ?domains:int ->
  eps:float ->
  delta:float ->
  seed:int ->
  Db.t ->
  Var.t array ->
  Ast.formula ->
  Q.t * int
(** The Theorem 4 sampling estimator: a Blumer-sized sample (for VC
    dimension [dim + 2]) of the clamped section set, from a PRNG freshly
    seeded with [seed].  Returns the estimate and the sample size used.
    {!Exec.volume_guarded}'s fallback retains the points and bitmap of
    the same {!sampler_size} and {!sampler_draw}, so the two are
    bit-identical for equal seeds. *)

val arrangement_vertices : Semilinear.t -> Q.t array list
(** All 0-dimensional intersections of [dim]-subsets of the constraint
    hyperplanes (no feasibility filtering): a superset of the vertices of
    every disjunct.  Enumerated by backtracking incremental elimination,
    pruning every subset extending a linearly dependent prefix. *)

val set_max_arrangement_subsets : int -> unit
(** Advisory limit on the number of hyperplane subsets
    [arrangement_vertices] enumerates before warning on stderr (default
    2_000_000; the enumeration still proceeds).
    @raise Invalid_argument below 1. *)

val get_max_arrangement_subsets : unit -> int

val breakpoints : Semilinear.t -> Q.t list
(** The candidate breakpoints used by the sweep on the last coordinate:
    last coordinates of all vertices of the constraint-hyperplane
    arrangement, plus the bounding interval's endpoints. *)

val breakpoints_since :
  old_set:Semilinear.t -> old_bps:Q.t list -> Semilinear.t -> Q.t list
(** [breakpoints s], computed incrementally against a predecessor:
    [old_bps] must be [breakpoints old_set].  When [s]'s last-axis
    bounding interval matches [old_set]'s and every hyperplane of
    [old_set] survives into [s]'s pool, only arrangement subsets meeting
    a fresh hyperplane are enumerated and merged into [old_bps]; the
    result equals [breakpoints s] exactly.  Falls back to the full
    enumeration when a precondition fails.
    @raise Unbounded like [breakpoints]. *)
