(** Deterministic fork/join for the exact-volume engine and the sampler:
    contiguous index chunks, slot-order reassembly, exceptions re-raised in
    index order after all chunks complete.  With exact rational arithmetic
    the chunked reductions are value-identical to their sequential
    counterparts, whatever the domain count.

    Chunks execute on {!Pool}'s persistent workers — never a fresh
    [Domain.spawn] per call — and when the pool's adaptive cutoff would
    run the batch inline on the caller the chunked structure is skipped
    entirely: the batch runs as the plain sequential map/fold (same value,
    since these combinators are chunking-invariant; the surfaced exception
    is still the first in index order, though elements after it are not
    evaluated on the inline path).  Either way the value depends only on
    [~domains]. *)

val clamp_domains : n:int -> int -> int
(** Usable domain count: at least 1, at most [n] (and [n = 0] still gives
    1). *)

val chunk_sizes : n:int -> chunks:int -> int array
(** Split [n] into [chunks] contiguous sizes; the first [n mod chunks]
    chunks carry the extra element. *)

val chunk_starts : int array -> int array
(** Prefix sums of the chunk sizes: the starting offset of each chunk. *)

val map : ?label:string -> domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f arr]: [Array.map f arr] evaluated on up to [domains]
    pool workers.  [domains <= 1] is exactly [Array.map].  When telemetry
    is enabled, each chunk's wall-clock duration is recorded under the
    timer [par.chunk:<label>] (default label ["map"]); the label also keys
    the pool's per-label cutoff calibration. *)

val fold_ints :
  ?label:string ->
  domains:int -> combine:('a -> 'a -> 'a) -> init:'a -> (int -> 'a) -> int -> int -> 'a
(** [fold_ints ~domains ~combine ~init term lo hi] combines
    [term lo, ..., term hi]; [combine] must be associative and commutative
    with unit [init] for the result to be independent of [domains].  When
    telemetry is enabled, chunk durations are recorded under
    [par.chunk:<label>] (default label ["fold"]). *)
