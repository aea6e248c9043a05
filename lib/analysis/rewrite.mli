(** The certified rewrite pass: a fixpoint of semantics-preserving rules
    run before plan compilation, so that syntactically different spellings
    of one query meet the plan cache — and the dispatch cost model — in one
    canonical normal form.

    Every rule fires only when its side condition is discharged by one of
    the static oracles already in the tree: constant atoms fold through
    {!Cqa_poly.Mpoly.constant_value}, linear atoms are replaced by their
    interned {!Cqa_linear.Linconstr} normal forms, dead branches and
    unsatisfiable conjunctions are refuted by the {!Range} interval pass,
    and summations collapse only when their range is provably empty.  Under
    [~verify:true] (the [make lint] and fuzz mode) every applied rewrite is
    additionally re-checked by {!Equiv} on the spot; a [Distinct] verdict
    is collected as a refutation — the rewriter is then unsound and the
    build gate fails.

    The rules, by diagnostic code:
    - [rw-const-fold]: constant atoms and constant subterms folded
      ([2 < 3] to [true], [t + 0] to [t], [0 * t] to [0]);
    - [rw-atom-canon]: a linear atom becomes its interned normal form
      [e OP 0] with primitive integer coefficients;
    - [rw-neg-atom]: [not (e < 0)] becomes the complementary atom
      ([Cqa_linear.Linconstr.negate]); equalities are left alone (their
      complement is a disjunction, which would grow the formula);
    - [rw-not]: double negation, [not true], [not false];
    - [rw-and-unit] / [rw-or-unit]: unit and absorbing constants of the
      lattice connectives;
    - [rw-idempotent]: duplicate operands of a flattened [/\]/[\/] chain;
    - [rw-absorption]: [f /\ (f \/ g)] to [f]; [f \/ (f /\ g)] to [f];
    - [rw-comm-sort]: operands of a quantifier- and summation-free chain
      put in a canonical order (side condition: pointwise-total operands,
      so reordering cannot change evaluation behaviour);
    - [rw-unsat-conj]: a conjunction some variable of which {!Range} pins
      to an empty interval becomes [false];
    - [rw-dead-branch]: a disjunct refuted by {!Range.truth} or interval
      analysis is dropped;
    - [rw-quant-unused]: a binder with no free occurrence is dropped;
    - [rw-quant-shrink]: a quantifier is pushed past the chain operands
      that do not mention its variable (sound for both quantifiers over
      both connectives on the nonempty domain R);
    - [rw-empty-sum]: a summation whose guard or END body is refuted by
      {!Range} becomes [0];
    - [rw-guard-hoist]: summation-tuple-independent guard conjuncts are
      hoisted ahead of the dependent ones (the evaluator then rejects a
      dead binding before materializing endpoint tuples); the pushdown
      direction — moving guard conjuncts into the END body — is unsound
      (END's endpoint set is not restriction-invariant) and deliberately
      absent. *)

open Cqa_arith
open Cqa_logic
open Cqa_core

type step = {
  rule : string;  (** diagnostic code, one of {!rule_codes} *)
  path : string list;  (** AST path, {!Diagnostic.t} style *)
  before : string;  (** rendered subformula or subterm *)
  after : string;
}

type refutation = {
  refuted_rule : string;
  refuted_path : string list;
  witness : Q.t Var.Map.t;  (** point separating the two sides *)
}

type result = {
  rewritten : Ast.formula;
  steps : step list;  (** in application order; [] unless [~trace:true] *)
  refuted : refutation list;  (** [] unless [~verify:true] *)
  passes : int;  (** bottom-up sweeps until the fixpoint *)
  fired : int;  (** total rule applications *)
  atoms_before : int;
  atoms_after : int;
}

val rule_codes : string list
(** Every code a {!step} can carry, sorted — pinned by the golden test. *)

val rewrite : ?db:Db.t -> ?verify:bool -> ?trace:bool -> Ast.formula -> result
(** Run the rules bottom-up to a fixpoint (capped at a small pass bound;
    the rules are reductive or idempotent, so the cap is a safety valve).
    [db] feeds the {!Range} oracles (relation bounding boxes) and
    {!Equiv}; [trace] (default false) records {!step}s; [verify] (default
    false) re-checks every applied rewrite with {!Equiv}.  Telemetry:
    [plan.rewrite.fired], [plan.rewrite.atoms_eliminated],
    [plan.rewrite.passes] (exempt from the determinism contract like all
    [plan.*] counters). *)

val formula : ?db:Db.t -> Ast.formula -> Ast.formula
(** [(rewrite f).rewritten] without trace or verification: the normal form
    {!Planner.compile} keys the plan cache on.  Not memoized: it runs once
    per {!Planner.compile} miss, and the planner's memo — keyed on the
    database and its version, since the {!Range} oracles read the
    database's current bounding boxes — answers replays. *)

val clear_memo : unit -> unit
(** A no-op: {!formula} keeps no memo.  Kept for callers that clear every
    engine cache by name. *)

val diagnostics : result -> Diagnostic.t list
(** One [Info] diagnostic per step (code, path, before/after message) plus
    one [Error] per refutation (code [rw-unsound]) — the payload of
    [cqa analyze --explain-rewrites]. *)
