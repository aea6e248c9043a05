(** Parametric volumes: Lemma 5 of the paper made effective.

    For a semi-linear set [S] in R^n viewed as a family over its last
    coordinate [t], the function [t -> vol (section of S at t)] is piecewise
    polynomial of degree below [n] with finitely many rational breakpoints
    -- this is why [{(a, v) | v = VOL (phi (a, D))}] is semi-algebraic
    (Lemma 5), and why it generally leaves the semi-linear world (the
    pieces are genuinely nonlinear), the paper's non-closure phenomenon.

    The representation here is exact: breakpoints come from the vertices of
    the constraint arrangement and each polynomial piece is recovered by
    interpolation at rational sample points, by the same
    {!Volume_exact.section_pieces} the sweep integrates. *)

open Cqa_arith
open Cqa_linear
open Cqa_poly

type piece = Volume_exact.piece = {
  lo : Q.t;
  hi : Q.t;
  poly : Upoly.t;  (** the section volume on the open interval (lo, hi) *)
}

type t = piece list
(** Consecutive, non-overlapping pieces covering the parameter range of the
    bounded set. *)

val section_volume_function : ?domains:int -> Semilinear.t -> t
(** [vol (section_last S t)] as an explicit piecewise polynomial in [t].
    [?domains] (default 1) evaluates the interpolation sections on that
    many OCaml domains; the result is identical for every domain count.
    @raise Volume_exact.Unbounded on unbounded sets.
    @raise Invalid_argument in dimension < 2. *)

val refresh :
  ?domains:int ->
  ?old_set:Semilinear.t ->
  old:t ->
  dirty:(Q.t -> Q.t -> bool) ->
  Semilinear.t ->
  t * int * int
(** Rebuild the piece list for the {e updated} set [s], re-interpolating
    only pieces whose open interval [(a, b)] satisfies [dirty a b] (the
    delta slab test) or lies outside the coverage of [old].  When
    [old_set] (the set [old] was computed from) is supplied, the
    breakpoint list itself is maintained incrementally through
    {!Volume_exact.breakpoints_since}.  Every other
    piece reuses the old polynomial overlapping its interval.  Returns
    [(pieces, recomputed, reused)].  Because the section volumes outside
    the delta slab are unchanged and polynomials of degree below [n]
    agreeing on an interval are equal, the result is byte-identical to a
    cold {!section_volume_function} on [s]: both are
    {!Volume_exact.section_pieces}, this one with a reuse callback.
    @raise Volume_exact.Unbounded on unbounded sets.
    @raise Invalid_argument in dimension < 2. *)

val eval : t -> Q.t -> Q.t
(** Evaluate the function (0 outside all pieces; breakpoints take the value
    of an adjacent piece -- a measure-zero convention). *)

val integrate : t -> Q.t
(** Total integral: equals {!Volume_exact.volume} of the set. *)

val degree : t -> int
(** Maximal piece degree; at most [dim - 1], and at least 2 forces the
    conclusion of Lemma 5: volume leaves the linear world. *)

val is_piecewise_linear : t -> bool

val to_semialgebraic_graph : t -> Semialg.t
(** The Lemma 5 statement itself: the graph [{ (t, v) | v = vol (section at
    t) }] (restricted to the pieces' closure) as an explicit semi-algebraic
    set in coordinates [(t, v)]. *)

val pp : Format.formatter -> t -> unit
