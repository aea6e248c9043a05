(** Plan execution: run a compiled {!Plan.t} many times against databases
    and parameter bindings.

    Everything database-dependent that the engines would otherwise
    recompute per call — the evaluated semi-linear set, the Lemma 5
    piecewise-polynomial section-volume function, the (clamped) total
    volume — is memoized in per-database execution state attached to the
    plan ({!Plan.exec_state}, keyed by the database's physical identity,
    at most four databases per plan).  Memoized values are exact
    rationals, so a warm re-execution returns byte-identical results to a
    cold one; duplicate computes under concurrency are benign for the same
    reason.

    {b Incremental maintenance.}  The per-database state is stamped with
    the database version; every entry point first settles it against
    {!Db.changes_since}.  Updates whose delta bounding boxes cannot reach
    any [Rel] occurrence of the query are ignored outright; otherwise the
    deltas' last-axis slab drives {!Volume_param.refresh}, so only the
    Lemma 5 breakpoint intervals the slab touches are re-interpolated,
    and retained Theorem 4 samples ({!volume_guarded}'s fallback) only
    re-test the points inside the delta boxes.  Every value is an exact
    rational recomputed from reused facts that provably still hold, so
    after any update sequence the answers are byte-identical to a cold
    recompute on the updated database.  A reader that falls behind the
    database's bounded change log rebuilds from scratch.

    Traffic is visible on the [plan.state.hit]/[plan.state.miss],
    [plan.exec.exact]/[plan.exec.fallback] and
    [plan.param.fast]/[plan.param.slow] counters, and invalidation on
    [exec.invalidate.full], [exec.invalidate.cells]/[exec.reuse.cells]
    (piece intervals) and [exec.invalidate.samples]/[exec.reuse.samples]
    (retained sample points) -- all execution-history dependent, hence
    determinism-exempt. *)

open Cqa_arith

val volume : ?domains:int -> Plan.t -> Db.t -> Q.t
(** Exact volume of the plan's query over the database (the Theorem 3
    sweep), memoized per database.
    @raise Volume_exact.Not_semilinear outside the exact fragment.
    @raise Volume_exact.Unbounded on infinite measure.
    @raise Invalid_argument if the plan has parameter slots. *)

val volume_clamped : ?domains:int -> Plan.t -> Db.t -> Q.t
(** [VOL_I] (intersection with the unit cube), memoized per database.
    @raise Invalid_argument if the plan has parameter slots. *)

val volume_at : ?domains:int -> Plan.t -> Db.t -> Q.t array -> Q.t
(** Volume of the query with the plan's parameter slots bound to the given
    values (positionally).  With exactly one parameter the Lemma 5
    piecewise polynomial is compiled once per database and evaluated per
    binding when the value lies strictly inside a piece; otherwise (and
    for several parameters) the bound set is sectioned and swept directly.
    Both paths compute the same exact rational.
    @raise Invalid_argument when the binding arity differs from the
    plan's parameter count. *)

val batch : ?domains:int -> Plan.t -> Db.t -> Q.t array list -> Q.t list
(** [volume_at] over a list of bindings, sharing one warm state: the set
    is evaluated and the parametric function compiled at most once.
    [domains] parallelizes {e inside} each binding's evaluation. *)

val volume_batch : ?domains:int -> Plan.t -> Db.t -> Q.t array list -> Q.t list
(** Like {!batch} but parallel {e across} bindings: the shared per-database
    state is warmed once, then the bindings are dealt to the pool as one
    submission ([domains] chunks, each binding evaluated sequentially) with
    slot-order reassembly.  This is the shape a serving layer wants — many
    small same-plan requests coalesced into one pool batch — and it returns
    exactly {!batch}'s values (exact rationals, chunking-invariant).
    @raise Volume_exact.Not_semilinear outside the exact fragment.
    @raise Invalid_argument on a binding arity mismatch. *)

val volume_guarded :
  ?domains:int ->
  ?budget:float ->
  ?eps:float ->
  ?delta:float ->
  ?seed:int ->
  Plan.t ->
  Db.t ->
  Volume_exact.guarded
(** [VOL_I] of the plan's query, with the engine chosen by
    {!Dispatch.decide}: the only cost-guarded entry point.  The verdict is
    the one computed at plan time ([budget] overrides trigger a
    re-decision, nothing else is re-analyzed).  Within budget the exact
    path returns the memoized clamped volume; past it — or when the plan's
    hint excludes the exact engine — the query degrades to the Theorem 4
    estimate of a Blumer-sized sample for [eps]/[delta] (defaults
    [0.1]/[0.1], seeded by [seed], default [1]), drawn from a retained
    sample keyed on those knobs and bit-identical to
    {!Volume_exact.sampler_estimate}.  The [plan.exec.exact] /
    [plan.exec.fallback] counters record the decisions, and each fallback
    records a [plan.fallback] telemetry event carrying the projected cost
    and budget.
    @raise Volume_exact.Not_semilinear when the exact engine was selected
    but the query is not linear-reducible.
    @raise Invalid_argument if the plan has parameter slots. *)
