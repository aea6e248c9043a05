(** Persistent work-stealing domain pool.

    One process-wide pool of worker domains, started lazily on the first
    parallel batch and reused for every subsequent one, so callers such as
    {!Par} and [Cqa_vc.Approx_volume] never pay a [Domain.spawn]
    per invocation (the telemetry counter [pool.domains.spawned] stays
    constant once the pool is warm).  Each worker owns a deque; a batch's
    chunks are dealt round-robin to the worker lanes {e at submit time}, so
    which chunk computes which slot is fixed before any stealing happens —
    work stealing redistributes {e when} a chunk runs, never {e what} it
    computes, which is why results are byte-identical whatever the pool
    size or the steal schedule.  The submitting domain helps drain the
    queues while it waits, so a batch makes progress even with zero
    workers.

    Determinism contract: for a fixed chunk decomposition, [run_chunks]
    produces exactly the effects of [chunk 0; ...; chunk (n-1)] up to
    ordering, every chunk runs exactly once, and an exception raised by a
    chunk is re-raised with the lowest chunk index (after all chunks have
    completed).  Callers that need value-determinism must (and do) derive
    the decomposition from their [~domains] argument alone, never from the
    pool state or the cutoff decision.

    Nested parallelism: a [run_chunks] issued from inside a pool worker
    runs its chunks inline, sequentially, on that worker — no deadlock, no
    pool growth. *)

(** {1 Scheduling mode and adaptive cutoff} *)

type mode =
  | Auto
      (** Parallelise only when it can pay: requires hardware parallelism
          ([Domain.recommended_domain_count () > 1]) and an estimated batch
          cost — per-item nanoseconds learned per label, times the item
          count — at or above the spawn-amortisation threshold.  A label
          with no estimate yet runs parallel once and is calibrated by its
          own timing. *)
  | Always  (** Always take the pool path (tests, pool benches). *)
  | Never  (** Always run sequentially on the calling domain. *)

val set_mode : mode -> unit
val mode : unit -> mode

val set_cutoff_threshold_ns : float -> unit
(** Batch-cost threshold (estimated total nanoseconds) below which [Auto]
    runs sequentially.  Default [1e6] — roughly the cost of a cross-domain
    fan-out with cold caches.  Raises [Invalid_argument] when
    non-positive. *)

val cutoff_threshold_ns : unit -> float

val estimate_ns_per_item : string -> float option
(** Current per-item cost estimate (EWMA, nanoseconds) for a label, if the
    label has run at least once.  Exposed for tests and diagnostics. *)

val would_parallelize : label:string -> items:int -> bool
(** The cutoff decision {!run_chunks} would make right now for a batch of
    [items] work items under [label] (false inside a pool worker and in
    [Never] mode, the {!mode}-dependent prediction otherwise).  Callers
    whose value is chunking-invariant use it to skip building the chunk
    structures entirely when the batch would run inline anyway; such
    callers should still route the collapsed batch through [run_chunks]
    (as a single chunk) so the label keeps being calibrated. *)

(** {1 Running batches} *)

val run_chunks : ?label:string -> items:int -> int -> (int -> unit) -> unit
(** [run_chunks ~label ~items n chunk] runs [chunk 0 .. chunk (n-1)], each
    exactly once, and returns when all have completed.  [items] is the
    total number of underlying work items the [n] chunks cover; it feeds
    the per-[label] cost model.  Whether the chunks run on pool workers or
    inline on the caller is decided by {!mode} — the caller must not be
    able to observe the difference except in timing.  Every chunk runs even
    if an earlier one raises; afterwards the exception of the
    lowest-indexed failing chunk is re-raised. *)

(** {1 Pool introspection} *)

val ensure_workers : int -> unit
(** Grow the pool to at least [n] workers (capped at {!max_workers}).
    Normally implicit in [run_chunks]; exposed so benchmarks can warm the
    pool outside the timed region, and so a long-lived server can re-grow
    the pool after a {!shutdown}. *)

val ensure : int -> unit
(** Alias for {!ensure_workers}: the [shutdown]/[ensure] pair is the
    explicit lifecycle a long-lived process drives. *)

val shutdown : unit -> unit
(** Join every worker domain and reset the pool to its cold state.  Queued
    jobs are drained before the workers exit, so a batch already submitted
    completes; the caller must not have a batch {e in flight on another
    domain} during the call.  Idempotent — a second call (or a call on a
    never-started pool) is a no-op — and not final: a later
    {!ensure_workers} (or any parallel batch) restarts the pool with fresh
    workers.  Registered [at_exit] on first spawn, so plain process exit
    needs no explicit call. *)

val size : unit -> int
(** Number of worker domains currently alive. *)

val spawned : unit -> int
(** Total worker domains ever spawned by this process (monotone; also
    mirrored in the telemetry counter [pool.domains.spawned] when
    telemetry is enabled at spawn time). *)

val max_workers : int
(** Hard cap on pool size (64): requests beyond it queue on the existing
    lanes rather than spawning more domains. *)

val hw_parallelism : unit -> int
(** [Domain.recommended_domain_count ()] — the [Auto] gate. *)

val is_worker : unit -> bool
(** True when called from inside a pool worker (the re-entrancy flag). *)

val dls_slot : init:(unit -> 'a) -> unit -> 'a
(** [dls_slot ~init] allocates a domain-local scratch slot and returns its
    accessor: every domain (main or pool worker) lazily builds its own
    value with [init] and then reuses it across calls on that domain, with
    no synchronization.  The kernel layers hang scratch arenas off these
    slots (flat-row tableaus, reusable {!Cqa_arith.Qmat.elim} states).
    Values must be self-resetting: a slot may be observed again after a
    job that raised.  The [arena.reuse]/[arena.grow] counters such arenas
    tick depend on which domain work lands on, and are exempt from the
    cross-domain determinism contract. *)
