(** Evaluation of FO + POLY + SUM queries over constraint databases.

    Two evaluation paths are implemented, mirroring how the paper uses the
    language:

    - a complete symbolic path for the linear-reducible fragment (semi-linear
      databases and atoms linear in the live variables), powered by
      Fourier-Motzkin elimination.  This covers everything Theorem 3 needs:
      quantifiers, END, range-restricted summation and hence exact volumes of
      semi-linear databases;
    - a pointwise path for arbitrary polynomial atoms and semi-algebraic
      databases: quantifier-free truth at a rational point, one-dimensional
      sections via 1-D CAD (with exact algebraic endpoints), and membership
      oracles for the Theorem 4 sampling operators.

    Anything outside both fragments (e.g. real quantification over
    semi-algebraic relations, or summation over algebraic endpoints) raises
    [Unsupported]; DESIGN.md discusses why the paper's results do not need
    it. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_poly

exception Unsupported of string

val eval_term : Db.t -> Q.t Var.Map.t -> Ast.term -> Q.t
(** Value of a term whose free variables are all bound by the environment.
    Summation terms enumerate the END endpoints, filter by the guard, and
    total the deterministic formula's outputs.
    @raise Unsupported outside the evaluable fragment.
    @raise Invalid_argument on unbound variables or a non-deterministic
    gamma detected at runtime. *)

val holds : Db.t -> Q.t Var.Map.t -> Ast.formula -> bool
(** Truth of a formula under an environment binding all its free variables. *)

val reduce_linear : Db.t -> Q.t Var.Map.t -> Ast.formula -> Linformula.t
(** Inline schema atoms from the (semi-linear) database, evaluate closed
    summation terms, substitute the environment: an equivalent pure FO + LIN
    formula over the remaining free variables.
    @raise Unsupported when atoms are not linear in the live variables or a
    relation is semi-algebraic. *)

val section : Db.t -> Q.t Var.Map.t -> Var.t -> Ast.formula -> Cell1.t
(** The one-dimensional set [{ y | phi (y) }] under the environment (linear
    path). *)

val end_points : Db.t -> Q.t Var.Map.t -> Var.t -> Ast.formula -> Q.t list
(** The END operator: endpoints of the intervals composing the section;
    finite by o-minimality. *)

val section_alg :
  Db.t -> Q.t Var.Map.t -> Var.t -> Ast.formula -> Semialg.Section.t
(** Semi-algebraic one-dimensional section with exact algebraic endpoints
    (quantifier-free bodies). *)

val eval_set : Db.t -> Var.t array -> Ast.formula -> Semilinear.t
(** Full symbolic evaluation of a linear-reducible query: the closure
    property of Lemma 4 made effective.  Free variables of the formula must
    be among the given coordinates. *)

val try_eval_set : Db.t -> Var.t array -> Ast.formula -> Semilinear.t option
(** The runtime linearity probe: [eval_set] with [Unsupported] mapped to
    [None].  Each call increments the {!runtime_probes} counter; queries
    carrying a static {!Dispatch.Exact_semilinear} hint skip the probe
    entirely (see [Volume_exact.volume_of_query]). *)

val runtime_probes : unit -> int
(** Number of runtime linearity probes performed so far (monotonic;
    observability hook for the static-dispatch contract). *)

val clear_memo : unit -> unit
(** Drop the quantified-subformula truth memo behind {!holds} (the
    server's [reset]; the memo already drops itself when the database
    changes). *)

val memo_entries : unit -> int
(** Entries in that memo (diagnostic). *)

val range_restricted_tuples :
  Db.t -> Q.t Var.Map.t -> Ast.sum_spec -> Q.t array list
(** The finite set [rho (D, z)] a summation ranges over: tuples of END
    endpoints satisfying the guard. *)

val gamma_value : Db.t -> Q.t Var.Map.t -> Ast.sum_spec -> Q.t array -> Q.t option
(** [f_gamma] applied to one tuple: the unique output of the deterministic
    formula, [None] when the formula has no output there (partial
    function). *)
