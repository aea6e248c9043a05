open Cqa_arith
module T = Cqa_telemetry.Telemetry
module Par = Cqa_conc.Par

(* Telemetry probes (zero-cost while disabled): points drawn, membership
   tests made and accepted (the acceptance rate is accepted/tests).  Every
   tick happens on the calling domain after the chunks have joined, so the
   totals for a fixed (seed, n, domains) run are deterministic. *)
let tm_drawn = T.counter "vc.samples.drawn"
let tm_tests = T.counter "vc.membership_tests"
let tm_accepted = T.counter "vc.samples.accepted"
let tm_estimates = T.counter "vc.estimates"

(* One pool batch over the contiguous chunks of an [n]-point sample:
   [f i start size] for chunk [i], results in chunk order. *)
let chunked ~label ~domains n f =
  let k = Par.clamp_domains ~n domains in
  let sizes = Par.chunk_sizes ~n ~chunks:k in
  let starts = Par.chunk_starts sizes in
  Par.map ~label ~domains:k (fun i -> f i starts.(i) sizes.(i)) (Array.init k Fun.id)

let concat_chunks = function [| c |] -> c | cs -> Array.concat (Array.to_list cs)

(* Every estimator is draw -> score -> count.  The draw is the only place
   the sample's decomposition lives: with [domains] > 1 the caller's
   generator is split into one generator per chunk, in chunk order, before
   anything runs, and chunk [i] draws its [Par.chunk_sizes] share from its
   own generator, so the points are a function of (seed, n, domains)
   alone; [domains = 1] draws every point from the caller's generator.
   Point [j]'s coordinates are drawn in order into [j*dim .. j*dim+dim-1];
   each chunk writes its own range. *)
let sample_points ?(domains = 1) ~prng ~dim n =
  if n <= 0 then invalid_arg "Approx_volume.sample_points: empty sample";
  let prngs =
    match Par.clamp_domains ~n domains with
    | 1 -> [| prng |]
    | k -> Array.init k (fun _ -> Prng.split prng)
  in
  let ks = Array.make (n * dim) 0 in
  ignore
    (chunked ~label:"vc.draw" ~domains n (fun i start size ->
         for o = start * dim to ((start + size) * dim) - 1 do
           ks.(o) <- Prng.bits53 prngs.(i)
         done));
  if T.enabled () then T.add tm_drawn n;
  ks

let point ~dim ks j = Array.init dim (fun d -> Prng.q_of_bits53 ks.((j * dim) + d))

let points ~dim ks =
  if dim <= 0 then invalid_arg "Approx_volume.points: dimension 0";
  Array.init (Array.length ks / dim) (point ~dim ks)

(* The drawn points as rationals, for oracles over [Q.t array]. *)
let q_sample ?domains ~prng ~dim n =
  let ks = sample_points ?domains ~prng ~dim n in
  Array.init n (point ~dim ks)

(* Halton points are indexed, so the chunking cannot change the sample. *)
let halton_sample ?(domains = 1) ~dim n =
  if n <= 0 then invalid_arg "Approx_volume.halton_sample: empty sample";
  let pts =
    chunked ~label:"vc.halton" ~domains n (fun _ start size ->
        Array.init size (fun j -> Halton.point ~dim (start + j + 1)))
    |> concat_chunks
  in
  if T.enabled () then T.add tm_drawn n;
  pts

(* Membership is elementwise, so the chunking cannot change the bitmap:
   each chunk writes its own byte range and returns its hit count. *)
let score ?(domains = 1) ~n mem =
  if n <= 0 then invalid_arg "Approx_volume.score: empty sample";
  let bits = Bytes.make n '\000' in
  let hits =
    chunked ~label:"vc.score" ~domains n (fun _ start size ->
        let h = ref 0 in
        for j = start to start + size - 1 do
          if mem j then begin
            Bytes.set bits j '\001';
            incr h
          end
        done;
        !h)
    |> Array.fold_left ( + ) 0
  in
  if T.enabled () then begin
    T.incr tm_estimates;
    T.add tm_tests n;
    T.add tm_accepted hits
  end;
  bits

let fraction_of_bits bits =
  let n = Bytes.length bits in
  if n = 0 then invalid_arg "Approx_volume.fraction_of_bits: empty sample";
  let hits = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr hits) bits;
  Q.of_ints !hits n

let fraction_in ?domains pts mem =
  fraction_of_bits (score ?domains ~n:(Array.length pts) (fun j -> mem pts.(j)))

let estimate_family ?domains ~sample ~mem params =
  List.map (fun a -> (a, fraction_in ?domains sample (mem a))) params

let estimate_random ?domains ~prng ~dim ~n mem =
  fraction_in ?domains (q_sample ?domains ~prng ~dim n) mem

let estimate_halton ?domains ~dim ~n mem =
  fraction_in ?domains (halton_sample ?domains ~dim n) mem

let estimate_family_random ?domains ~prng ~dim ~n ~mem params =
  estimate_family ?domains ~sample:(q_sample ?domains ~prng ~dim n) ~mem params
