(** Sampling-based approximate volume: the executable content of Lemma 1 and
    Theorem 4.  An epsilon-approximation of [vol (S intersect I^n)] is the
    fraction of a sample falling in [S]; the sample size comes from the
    BEHW bound ({!Bounds.blumer_sample_size}) and the family's VC
    dimension, so one shared sample is good for all parameter values
    simultaneously with probability [1 - delta].

    Every estimator is one path: draw the points ({!sample_points} or
    {!halton_sample}), {!score} them into a membership bitmap, and count
    the bitmap ({!fraction_of_bits}).  A random sample is kept as flat
    [2^53]-numerators; the query estimators ([Cqa_core.Volume_approx])
    score it with a compiled oracle that reads them directly, while the
    estimators here take oracles over rational points.  [?domains]
    (default [1]) spreads the draw's decomposition and the membership
    tests over that many chunks; the result is reproducible for a fixed
    seed and domain count, and a Halton estimate is the same for every
    domain count. *)

open Cqa_arith

val sample_points : ?domains:int -> prng:Prng.t -> dim:int -> int -> int array
(** [sample_points ~prng ~dim n]: [n] uniform dyadic-rational points in
    the unit cube, as their {!Prng.bits53} numerators over [2^53] in one
    flat row-major array: coordinate [d] of point [j] is
    [k = a.(j*dim + d)], standing for [k / 2^53] (a double holds it
    exactly).  With [domains] > 1 the generator is split into one
    generator per chunk ({!Cqa_conc.Par.chunk_sizes}), in chunk order, so
    the points depend on [prng], [n] and [domains] only.  This is the only
    place that order is defined: a sample retained for incremental
    re-scoring and a one-shot estimate draw the same points.
    @raise Invalid_argument when [n <= 0]. *)

val point : dim:int -> int array -> int -> Q.t array
(** [point ~dim a j]: point [j] of a {!sample_points} array as rationals
    ({!Prng.q_of_bits53} of each numerator). *)

val points : dim:int -> int array -> Q.t array array
(** Every point of a {!sample_points} array as rationals.
    @raise Invalid_argument when [dim <= 0]. *)

val halton_sample : ?domains:int -> dim:int -> int -> Q.t array array
(** Deterministic low-discrepancy sample, Halton indices [1..n] (the
    derandomized stand-in), computed in [domains] chunks; the same points
    for every domain count.
    @raise Invalid_argument when [n <= 0]. *)

val score : ?domains:int -> n:int -> (int -> bool) -> Bytes.t
(** [score ~n mem]: membership bitmap of points [0 .. n-1] ([\001] =
    inside, [mem j] tests point [j]), tested in [domains] chunks on the
    pool; the bitmap does not depend on the domain count.  Ticks
    [vc.estimates] once and [vc.membership_tests] / [vc.samples.accepted]
    per point.  [mem] must be safe to call from several domains.
    @raise Invalid_argument when [n <= 0]. *)

val fraction_of_bits : Bytes.t -> Q.t
(** Hits over sample size: the estimate the bitmap encodes. *)

val fraction_in : ?domains:int -> Q.t array array -> (Q.t array -> bool) -> Q.t
(** The fraction of the points inside the set, an exact rational: the
    {!score} of [mem] over the array, counted. *)

val estimate_family :
  ?domains:int ->
  sample:Q.t array array ->
  mem:('a -> Q.t array -> bool) ->
  'a list ->
  ('a * Q.t) list
(** One shared sample scored against every parameter: the Theorem 4
    uniform-over-parameters shape. *)

val estimate_random :
  ?domains:int -> prng:Prng.t -> dim:int -> n:int -> (Q.t array -> bool) -> Q.t
(** [fraction_in] of the [sample_points ~prng ~dim n] points as
    rationals: for oracles over [Q.t array]. *)

val estimate_halton :
  ?domains:int -> dim:int -> n:int -> (Q.t array -> bool) -> Q.t
(** [fraction_in] of [halton_sample ~dim n]: the same exact rational for
    every domain count. *)

val estimate_family_random :
  ?domains:int ->
  prng:Prng.t ->
  dim:int ->
  n:int ->
  mem:('a -> Q.t array -> bool) ->
  'a list ->
  ('a * Q.t) list
(** [estimate_family] over [sample_points ~prng ~dim n]. *)
