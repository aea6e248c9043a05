(** Cache-first plan compilation with the static analyzer in the loop.

    {!Cqa_core.Plan.cached} takes the dispatch hint and the rewriter as
    callbacks so the core library never depends on this one; this module
    closes the loop: every lookup first runs the certified {!Rewrite} pass
    (the cache is keyed on the rewritten normal form, so semantically
    equal spellings share one plan, and the cost profile the dispatch
    decision is made on is the post-rewrite one), then on a plan-cache
    miss the full analyzer runs once ([Fragment] gives the engine hint;
    the cost pass is subsumed by the plan's own profile), and on a hit the
    query goes straight to the compiled plan.  This is the entry point the
    CLI, the query service and the benchmarks use. *)

open Cqa_core

val compile :
  ?db:Db.t ->
  ?options:Analyzer.options ->
  ?budget:float ->
  ?params:Cqa_logic.Var.t array ->
  ?coords:Cqa_logic.Var.t array ->
  Ast.formula ->
  Plan.t
(** Fetch or compile the plan for this query shape.  [db]/[options] feed
    the analyzer (classification against a database can differ — e.g.
    semi-algebraic relations force the sampling engines) and are only
    consulted on a cache miss; the other arguments are
    {!Cqa_core.Plan.cached}'s.

    A bounded front-line memo maps the raw question — (formula, database
    identity and {!Cqa_core.Db.version}, params, coords, budget) —
    straight to the compiled plan, so replaying one spelling costs a hash
    and a structural compare instead of rewrite + alpha + shape hash.  The
    rewriter reads the database's bounding boxes, so an update makes the
    next compile of the same question miss and rewrite afresh.  Entries
    are stamped with {!Cqa_core.Plan.cache_generation} and invalidated
    wholesale by {!Cqa_core.Plan.clear_cache}; a memo hit ticks
    [plan.cache.hit].  This memo and the plan cache behind it are the
    only plan-lookup caches. *)

val clear_memo : unit -> unit
(** Drop the front-line plan memo (benchmarks and the server's [reset];
    {!Cqa_core.Plan.clear_cache} already invalidates it logically via the
    generation stamp, but only dropping it releases the plans and their
    retained samples). *)

val memo_entries : unit -> int
(** Entries in the front-line plan memo (diagnostic). *)
