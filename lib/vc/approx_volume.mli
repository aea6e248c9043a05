(** Sampling-based approximate volume: the executable content of Lemma 1 and
    Theorem 4.  An epsilon-approximation of [vol (S intersect I^n)] is the
    fraction of a sample falling in [S]; the sample size comes from the
    BEHW bound ({!Bounds.blumer_sample_size}) and the family's VC
    dimension, so one shared sample is good for all parameter values
    simultaneously with probability [1 - delta].

    Every estimator is one path: draw the points ({!sample_points} or
    {!halton_sample}), {!score} them into a membership bitmap, and count
    the bitmap ({!fraction_of_bits}).  [?domains] (default [1]) spreads
    the draw's decomposition and the membership tests over that many
    chunks; the result is reproducible for a fixed seed and domain count,
    and a Halton estimate is the same for every domain count. *)

open Cqa_arith

type sample = Q.t array array

val sample_points : ?domains:int -> prng:Prng.t -> dim:int -> int -> sample
(** [sample_points ~prng ~dim n]: [n] uniform dyadic-rational points in
    the unit cube.  With [domains] > 1 the generator is split into one
    generator per chunk ({!Cqa_conc.Par.chunk_sizes}), in chunk order, so
    the points depend on [prng], [n] and [domains] only.  This is the only
    place that order is defined: a sample retained for incremental
    re-scoring and a one-shot estimate draw the same points.
    @raise Invalid_argument when [n <= 0]. *)

val halton_sample : ?domains:int -> dim:int -> int -> sample
(** Deterministic low-discrepancy sample, Halton indices [1..n] (the
    derandomized stand-in), computed in [domains] chunks; the same points
    for every domain count.
    @raise Invalid_argument when [n <= 0]. *)

val score : ?domains:int -> (Q.t array -> bool) -> sample -> Bytes.t
(** Membership bitmap of the points ([\001] = inside), tested in
    [domains] chunks on the pool; the bitmap does not depend on the domain
    count.  Ticks [vc.estimates] once and [vc.membership_tests] /
    [vc.samples.accepted] per point.  The membership oracle must be safe
    to call from several domains.
    @raise Invalid_argument on an empty sample. *)

val fraction_of_bits : Bytes.t -> Q.t
(** Hits over sample size: the estimate the bitmap encodes. *)

val fraction_in : ?domains:int -> sample -> (Q.t array -> bool) -> Q.t
(** [fraction_of_bits (score mem sample)]: the fraction of the sample
    inside the set, an exact rational. *)

val estimate_family :
  ?domains:int ->
  sample:sample ->
  mem:('a -> Q.t array -> bool) ->
  'a list ->
  ('a * Q.t) list
(** One shared sample scored against every parameter: the Theorem 4
    uniform-over-parameters shape. *)

val estimate_random :
  ?domains:int -> prng:Prng.t -> dim:int -> n:int -> (Q.t array -> bool) -> Q.t
(** [fraction_in] of [sample_points ~prng ~dim n]. *)

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
