(** Sample-complexity and formula-size bounds quoted by the paper.

    - the Blumer-Ehrenfeucht-Haussler-Warmuth sample size
      [M > max (4/eps log2 (2/delta), 8d/eps log2 (13/eps))] behind Lemma 1
      and Theorem 4;
    - the Goldberg-Jerrum bound instantiating the constant [C] of
      Proposition 6, [C = 16 k (p+q) (log2 (8 e d p s) + 1)];
    - a first-principles size model of the Karpinski-Macintyre/Koiran
      derandomized approximation formula, reproducing the Section 3 example's
      conclusion that the construction blows up beyond practical use. *)

val blumer_sample_size : eps:float -> delta:float -> vc_dim:int -> int
(** Smallest integer [M] satisfying the BEHW bound, saturating at
    [max_int].
    @raise Invalid_argument unless [eps] and [delta] lie in (0, 1). *)

val goldberg_jerrum_c :
  k:int -> p:int -> q:int -> d:int -> s:int -> float
(** The constant [C] of Proposition 6 for an active-semantics FO + POLY
    query: [k] = arity of the definable family, [q] = quantifier rank, [p] =
    maximal schema arity, [d] = maximal polynomial degree, [s] = number of
    atomic subformulae. *)

val vc_upper_bound : c:float -> db_size:int -> float
(** [C log2 |D|], the Proposition 6 bound. *)

type km_size = {
  sample_size : int;  (** M points in I^m *)
  sample_vars : int;  (** M * m quantified reals per sample *)
  translates : int;  (** Lautemann-style covering translates *)
  quantifiers : float;  (** total quantified real variables *)
  atoms : float;  (** total atomic subformulae *)
}

val km_formula_size :
  eps:float -> delta:float -> vc_dim:int -> m:int -> atoms_in_phi:int -> km_size
(** Size model of the derandomized epsilon-approximation formula: a sample
    of [M = blumer_sample_size (eps/2) delta d] points in [I^m] is
    quantified per translate, [t = ceil (M*m / log2 (1/delta))] translates
    cover the cube, and each translate re-evaluates the [atoms_in_phi]-atom
    input formula on all [M] sample points.  The Section 3 example
    instantiates this at [eps = 1/10]. *)
