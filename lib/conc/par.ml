(* Deterministic fork/join helpers shared by the exact-volume engine and
   the sampler: work is split into contiguous index chunks, results are
   reassembled in slot order, so the output never depends on domain
   scheduling.  The chunks run on Pool's persistent workers — no
   Domain.spawn per call — and its adaptive cutoff may run them inline on
   the caller; both execute the identical decomposition, so the value is a
   function of [~domains] alone. *)

let clamp_domains ~n domains =
  let d = Stdlib.max 1 domains in
  Stdlib.min d (Stdlib.max 1 n)

(* first (n mod k) chunks carry the extra element *)
let chunk_sizes ~n ~chunks =
  let q = n / chunks and r = n mod chunks in
  Array.init chunks (fun i -> if i < r then q + 1 else q)

let chunk_starts sizes =
  let k = Array.length sizes in
  let starts = Array.make k 0 in
  for i = 1 to k - 1 do
    starts.(i) <- starts.(i - 1) + sizes.(i - 1)
  done;
  starts

module T = Cqa_telemetry.Telemetry

(* Per-chunk wall-clock timings, recorded under [par.chunk:<label>].  The
   chunk count and durations depend on the domain count and scheduling, so
   this is a timer, never a counter (see the Telemetry determinism
   contract).  The timer is registered on the submitting domain; pool
   workers only record into it. *)
let chunk_timer label =
  if T.enabled () then Some (T.timer ("par.chunk:" ^ label)) else None

let timed tmr job =
  match tmr with None -> job () | Some t -> T.time t job

(* On the pool path exceptions are captured per element and re-raised in
   index order only after every chunk has completed: no chunk is ever
   abandoned, and the surfaced exception is the one the sequential run
   would have hit first.  When the pool's cutoff would run the batch
   inline anyway, the chunk structures are skipped and the map runs as the
   plain sequential map — same value (the map is elementwise), same
   surfaced exception (the first in index order) — still routed through
   [run_chunks] as one chunk so the label keeps being calibrated. *)
let map ?(label = "map") ~domains f arr =
  let n = Array.length arr in
  let k = clamp_domains ~n domains in
  if k <= 1 then Array.map f arr
  else if not (Pool.would_parallelize ~label ~items:n) then begin
    let res = ref [||] in
    Pool.run_chunks ~label ~items:n 1 (fun _ -> res := Array.map f arr);
    !res
  end
  else begin
    let sizes = chunk_sizes ~n ~chunks:k in
    let starts = chunk_starts sizes in
    let tmr = chunk_timer label in
    let chunks = Array.make k [||] in
    Pool.run_chunks ~label ~items:n k (fun d ->
        timed tmr (fun () ->
            chunks.(d) <-
              Array.init sizes.(d) (fun i ->
                  match f arr.(starts.(d) + i) with
                  | v -> Ok v
                  | exception e -> Error e)));
    let results = Array.concat (Array.to_list chunks) in
    Array.map (function Ok v -> v | Error e -> raise e) results
  end

(* Chunked reduction of [combine] over [term lo .. term hi]: each chunk
   folds a contiguous index range, partial results are combined in chunk
   order.  [combine] must be associative and commutative (exact rational
   addition here), so the re-association cannot change the value. *)
let fold_ints ?(label = "fold") ~domains ~combine ~init term lo hi =
  let n = hi - lo + 1 in
  if n <= 0 then init
  else begin
    let k = clamp_domains ~n domains in
    let seq a b =
      let acc = ref init in
      for i = a to b do
        acc := combine !acc (term i)
      done;
      !acc
    in
    if k <= 1 then seq lo hi
    else if not (Pool.would_parallelize ~label ~items:n) then begin
      let res = ref init in
      Pool.run_chunks ~label ~items:n 1 (fun _ -> res := seq lo hi);
      !res
    end
    else begin
      let sizes = chunk_sizes ~n ~chunks:k in
      let starts = chunk_starts sizes in
      let tmr = chunk_timer label in
      let parts = Array.make k (Ok init) in
      Pool.run_chunks ~label ~items:n k (fun d ->
          timed tmr (fun () ->
              let a = lo + starts.(d) in
              let b = a + sizes.(d) - 1 in
              parts.(d) <-
                (match seq a b with v -> Ok v | exception e -> Error e)));
      Array.fold_left
        (fun acc r -> match r with Ok v -> combine acc v | Error e -> raise e)
        init parts
    end
  end
