(** Compiled query plans: the explicit plan IR behind the volume engines.

    A plan is a query compiled {e once} — alpha-normalized, structurally
    hashed, its cost profile and engine decision precomputed — and then
    executed many times by {!Exec} against different databases and
    parameter bindings.  Compilation is purely static (it never touches a
    database); everything database-dependent lives in per-plan execution
    state owned by {!Exec}.

    Plans are cached in a lock-striped table keyed on {e shape}: the
    alpha-normal form of the formula together with the coordinate and
    parameter orders.  Two alpha-equivalent spellings of a query share one
    plan; distinct shapes get distinct plans.  The cache is capacity-
    bounded (512 plans, [Half] eviction) and
    reports traffic on the [plan.cache.hit] / [plan.cache.miss] /
    [plan.cache.evict] counters and compile cost on the [plan.compile]
    timer and [plan.compile_ns] counter.  All [plan.*] counters are
    cache-state- and clock-dependent and exempt from the counter
    determinism contract. *)

open Cqa_logic

type t
(** A compiled plan.  Immutable apart from its cache-hit tally and the
    execution-state slots, both of which are lock-protected. *)

type exec_state = ..
(** Extension point for per-database execution state.  {!Exec} attaches
    its own constructor; keeping the type open here avoids a dependency
    cycle while letting the plan own the slots. *)

(** {1 Compilation} *)

val compile :
  ?normalize:(Ast.formula -> Ast.formula) ->
  ?hint:Dispatch.hint ->
  ?budget:float ->
  ?params:Var.t array ->
  ?coords:Var.t array ->
  Ast.formula ->
  t
(** Compile [f] unconditionally (no cache).  [normalize] (identity by
    default) is a semantics-preserving rewriter applied before
    normalization: the plan's shape, cost profile and engine decision are
    those of the {e rewritten} formula, while [source], the coordinate
    defaults and the free-variable contract stay those of [f] as written.
    [coords] defaults to the sorted free variables of [f] minus [params];
    [params] defaults to none; [budget] to {!Dispatch.default_budget}.
    @raise Invalid_argument if a parameter is not free in [f], a variable
    is both coordinate and parameter, or the coordinates and parameters
    together do not cover the free variables. *)

val cached :
  ?normalize:(Ast.formula -> Ast.formula) ->
  ?hint_of:(Ast.formula -> Dispatch.hint option) ->
  ?budget:float ->
  ?params:Var.t array ->
  ?coords:Var.t array ->
  Ast.formula ->
  t
(** Like {!compile} but through the striped plan cache: a query whose
    shape was compiled before returns the existing plan without any
    analysis or normalization beyond computing the shape key.  [normalize]
    runs on {e every} lookup (the cache is keyed on the rewritten normal
    form, so semantically-equal spellings hit one plan) and must be cheap;
    [hint_of] is consulted {e only on a cache miss}, on the rewritten
    spelling — this is how the analysis layer's rewriter and fragment
    classifier are threaded in without a dependency from [cqa_core] on
    [cqa_analysis] (see [Cqa_analysis.Planner]). *)

(** {1 Accessors} *)

val id : t -> int
(** Unique per compiled plan (cache hits share the id). *)

val source : t -> Ast.formula
(** The formula as compiled (first spelling to reach the cache). *)

val normal : t -> Ast.formula
(** Alpha-normal form: binders renamed to [plan#<i>] in traversal order. *)

val coords : t -> Var.t array
val params : t -> Var.t array
val shape_hash : t -> int
val profile : t -> Dispatch.cost_profile
val projected : t -> float
(** {!Dispatch.projected_qe_atoms} of the profile. *)

val hint : t -> Dispatch.hint option
val budget : t -> float
val decision : t -> Dispatch.decision
(** {!Dispatch.decide} at plan time, against {!budget}. *)

val compile_ns : t -> float
(** Wall-clock compile time, recorded whether or not telemetry is on. *)

val hit_count : t -> int
(** Times this plan was returned by a {!cached} hit. *)

val equal_shape : t -> t -> bool

(** {1 Normalization helpers} (exposed for tests) *)

val alpha_normalize : Ast.formula -> Ast.formula
val hash_formula : Ast.formula -> int
val equal_formula : Ast.formula -> Ast.formula -> bool

(** {1 Cache control} *)

val clear_cache : unit -> unit

val cache_generation : unit -> int
(** Bumped by every {!clear_cache}.  Outer cache levels (the planner's
    whole-plan memo) stamp entries with the generation they were filled
    under and treat a stamp mismatch as invalid, so one [clear_cache]
    empties every level at once. *)

val cache_length : unit -> int
val cache_capacity : unit -> int
val set_cache_capacity : int -> unit
val cache_stats : unit -> Cqa_conc.Striped_tbl.stat array
(** Per-stripe accounting of the plan cache ({!Cqa_conc.Striped_tbl.stats}). *)

val pp_cache_stats : Format.formatter -> unit -> unit
(** Render {!cache_stats} as the table behind [cqa plan --stats]. *)

(** {1 Execution state} (for {!Exec}) *)

val lookup_state : t -> 'db -> exec_state option
(** State for this database, by physical identity; most-recently-used
    first, at most four databases retained per plan. *)

val store_state : t -> 'db -> exec_state -> unit
val reset_states : t -> unit

val with_lock : t -> (unit -> 'a) -> 'a
(** Run under the plan's mutex — {!Exec} serializes state mutation with
    this; do not call {!lookup_state}/{!store_state} inside. *)

val pp : Format.formatter -> t -> unit
(** Human rendering of the static plan (the [cqa plan] output body). *)
