(* Persistent domain pool (Cqa_conc.Pool):
   worker reuse, result determinism across pool sizes and on a warm pool,
   the exception-in-index-order contract, the nested-parallelism fallback,
   and the lock-striped memo tables' agreement with the single-mutex
   semantics they replaced. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_vc
open Cqa_core
module T = Cqa_telemetry.Telemetry
module Pool = Cqa_conc.Pool
module Par = Cqa_conc.Par

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Force the pool path: the adaptive cutoff (mode Auto) would run these
   small fixtures inline, especially on single-core hardware. *)
let with_forced f =
  Pool.set_mode Pool.Always;
  Fun.protect ~finally:(fun () -> Pool.set_mode Pool.Auto) f

(* CI exercises extra pool widths by exporting CQA_DOMAINS. *)
let pool_sizes =
  [ 1; 2; 4 ]
  @ (match Option.bind (Sys.getenv_opt "CQA_DOMAINS") int_of_string_opt with
    | Some d when d >= 1 && d <= 16 && not (List.mem d [ 1; 2; 4 ]) -> [ d ]
    | _ -> [])

let counter_value name =
  match List.assoc_opt name (T.snapshot ()).T.counters with
  | Some v -> v
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Worker reuse                                                        *)
(* ------------------------------------------------------------------ *)

(* Must run first in this binary: it relies on the pool starting cold so
   the spawn counters are non-vacuous. *)
let test_domain_reuse () =
  with_forced @@ fun () ->
  T.enable ();
  T.reset ();
  Fun.protect ~finally:T.disable @@ fun () ->
  check_int "pool starts cold" 0 (Pool.spawned ());
  let arr = Array.init 64 Fun.id in
  let run () = ignore (Par.map ~domains:4 (fun x -> x + 1) arr) in
  run ();
  let spawned_once = Pool.spawned () in
  check "first batch spawns the workers" true
    (spawned_once >= 1 && spawned_once <= 3);
  check_int "telemetry mirrors the spawn count" spawned_once
    (counter_value "pool.domains.spawned");
  for _ = 1 to 10 do run () done;
  check_int "no further spawns across repeated runs" spawned_once
    (Pool.spawned ());
  check_int "telemetry counter constant across repeated runs" spawned_once
    (counter_value "pool.domains.spawned");
  check_int "workers persist between batches" spawned_once (Pool.size ())

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_determinism () =
  with_forced @@ fun () ->
  let arr = Array.init 101 (fun i -> i - 50) in
  let f x = (x * x) + (3 * x) in
  let expect = Array.map f arr in
  List.iter
    (fun d ->
      (* three repetitions: the second and third hit a warm pool *)
      for _ = 1 to 3 do
        check
          (Printf.sprintf "map byte-identical at %d domains" d)
          true
          (Par.map ~domains:d f arr = expect)
      done)
    pool_sizes

let test_fold_determinism () =
  with_forced @@ fun () ->
  let term i = Q.of_ints ((i * i) + 1) 7 in
  let expect =
    Par.fold_ints ~domains:1 ~combine:Q.add ~init:Q.zero term 0 100
  in
  List.iter
    (fun d ->
      for _ = 1 to 3 do
        check
          (Printf.sprintf "fold byte-identical at %d domains" d)
          true
          (Q.equal expect
             (Par.fold_ints ~domains:d ~combine:Q.add ~init:Q.zero term 0 100))
      done)
    pool_sizes

let fixed_semilinear dim seed =
  let prng = Prng.create seed in
  Cqa_workload.Generators.semilinear prng ~dim ~disjuncts:2

(* The exact-volume engine end to end: pooled runs at every width must
   reproduce the sequential value, cold caches and warm. *)
let test_sweep_pool_vs_sequential () =
  let s3 = fixed_semilinear 3 102 in
  let cold () =
    Fourier_motzkin.clear_qe_cache ();
    Semilinear.clear_bbox_cache ()
  in
  Pool.set_mode Pool.Never;
  cold ();
  let seq = Volume_exact.volume_sweep ~domains:4 s3 in
  Pool.set_mode Pool.Always;
  Fun.protect ~finally:(fun () -> Pool.set_mode Pool.Auto) @@ fun () ->
  List.iter
    (fun d ->
      cold ();
      check
        (Printf.sprintf "pooled sweep (cold) equals sequential at %d domains" d)
        true
        (Q.equal seq (Volume_exact.volume_sweep ~domains:d s3));
      check
        (Printf.sprintf "pooled sweep (warm) equals sequential at %d domains" d)
        true
        (Q.equal seq (Volume_exact.volume_sweep ~domains:d s3)))
    pool_sizes

(* Sampler estimates are documented to depend only on (seed, domains):
   whether the chunks run pooled or inline must be unobservable. *)
let test_sampler_pool_invariance () =
  let mem pt =
    Q.leq (Array.fold_left Q.add Q.zero pt) (Q.of_ints 3 2)
  in
  let est d =
    let prng = Prng.create 11 in
    Cqa_vc.Approx_volume.estimate_random ~domains:d ~prng ~dim:3 ~n:500 mem
  in
  Fun.protect ~finally:(fun () -> Pool.set_mode Pool.Auto) @@ fun () ->
  List.iter
    (fun d ->
      Pool.set_mode Pool.Never;
      let inline = est d in
      Pool.set_mode Pool.Always;
      check
        (Printf.sprintf "pooled estimate equals inline at %d domains" d)
        true
        (Q.equal inline (est d));
      check
        (Printf.sprintf "warm-pool estimate repeats at %d domains" d)
        true
        (Q.equal inline (est d)))
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Exception contract                                                  *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_map_exception_index_order () =
  with_forced @@ fun () ->
  let arr = Array.init 10 Fun.id in
  let evaluated = Atomic.make 0 in
  let f i =
    Atomic.incr evaluated;
    if i = 3 || i = 7 then raise (Boom i) else i
  in
  List.iter
    (fun d ->
      Atomic.set evaluated 0;
      (match Par.map ~domains:d f arr with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          check_int
            (Printf.sprintf "lowest-index error surfaces at %d domains" d)
            3 i);
      (* multi-chunk runs evaluate every element before re-raising
         (domains = 1 is Array.map and stops at the first raise) *)
      if d > 1 then
        check_int
          (Printf.sprintf "all elements evaluated at %d domains" d)
          10 (Atomic.get evaluated))
    pool_sizes

let test_fold_exception_chunk_order () =
  with_forced @@ fun () ->
  let term i = if i = 2 || i = 8 then raise (Boom i) else Q.of_int i in
  List.iter
    (fun d ->
      match
        Par.fold_ints ~domains:d ~combine:Q.add ~init:Q.zero term 0 9
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          check_int
            (Printf.sprintf "lowest-chunk error surfaces at %d domains" d)
            2 i)
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Nested parallelism                                                  *)
(* ------------------------------------------------------------------ *)

let test_nested_fallback () =
  with_forced @@ fun () ->
  let inner = Array.init 8 Fun.id in
  let outer = Array.init 6 Fun.id in
  let row i =
    Array.fold_left ( + ) 0 (Par.map ~domains:4 (fun j -> i + j) inner)
  in
  let expect = Array.map (fun i -> (8 * i) + 28) outer in
  let got = Par.map ~domains:4 row outer in
  check "nested Par.map completes with correct values" true (got = expect);
  (* the raw pool API, nested directly: inner batches run inline on the
     worker, so this terminates and covers every chunk *)
  let acc = Atomic.make 0 in
  Pool.run_chunks ~label:"test.nested" ~items:4 4 (fun _ ->
      Pool.run_chunks ~label:"test.nested.inner" ~items:4 4 (fun j ->
          ignore (Atomic.fetch_and_add acc j)));
  check_int "nested run_chunks ran every inner chunk" 24 (Atomic.get acc)

(* ------------------------------------------------------------------ *)
(* Striped memo tables                                                 *)
(* ------------------------------------------------------------------ *)

module Itbl = Cqa_conc.Striped_tbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = Hashtbl.hash x
end)

(* One stripe is literally the old single-mutex table; agreement with an
   8-stripe twin under the same operation stream is the sharding
   refactor's correctness statement. *)
let test_striped_agreement () =
  let mk shards name =
    Itbl.create ~shards ~name ~cap:4096 ~evict:Cqa_conc.Striped_tbl.Reset ()
  in
  let t1 = mk 1 "test.striped1" and t8 = mk 8 "test.striped8" in
  for i = 0 to 999 do
    let k = i * 7919 mod 512 in
    match (Itbl.find_opt t1 k, Itbl.find_opt t8 k) with
    | None, None ->
        Itbl.replace t1 k (k * k);
        Itbl.replace t8 k (k * k)
    | Some a, Some b ->
        if not (a = k * k && b = k * k) then
          Alcotest.fail "cached values diverge"
    | _ -> Alcotest.fail "presence diverges between 1 and 8 stripes"
  done;
  check_int "lengths agree" (Itbl.length t1) (Itbl.length t8);
  Itbl.reset t8;
  check_int "reset empties every stripe" 0 (Itbl.length t8)

let test_striped_eviction_bound () =
  let t =
    Itbl.create ~shards:4 ~name:"test.striped_evict" ~cap:16
      ~evict:Cqa_conc.Striped_tbl.Half ()
  in
  for k = 0 to 199 do
    Itbl.replace t k k
  done;
  check "global capacity bound holds" true (Itbl.length t <= Itbl.capacity t);
  let correct = ref true in
  for k = 0 to 199 do
    match Itbl.find_opt t k with
    | Some v -> if v <> k then correct := false
    | None -> ()
  done;
  check "surviving entries are correct" true !correct;
  (* capacity changes take effect on subsequent inserts *)
  Itbl.set_capacity t 2;
  Itbl.reset t;
  for k = 200 to 260 do
    Itbl.replace t k k
  done;
  check "tightened capacity respected" true
    (Itbl.length t <= 2 && Itbl.length t > 0)

(* The qe_vertex ablation workload (Section 5 vertex formula over the
   pentagon database) through the sharded QE/sat memos: warm results must
   reproduce cold ones, and the memoized satisfiability verdicts must
   agree with the unmemoized simplex oracle. *)
let test_qe_vertex_sharded_memo () =
  let v1 = Var.of_string "v1" and v2 = Var.of_string "v2" in
  let db = Cqa_workload.Paper_examples.pentagon_db () in
  let lf =
    Eval.reduce_linear db Var.Map.empty (Compile.vertex_formula ~rel:"P" v1 v2)
  in
  Fourier_motzkin.clear_qe_cache ();
  let cold = Fourier_motzkin.qe lf in
  check "qe_vertex produces disjuncts" true (cold <> []);
  check "cold run populated the sharded memo" true
    (Fourier_motzkin.qe_cache_size () > 0);
  let warm = Fourier_motzkin.qe lf in
  check "warm DNF identical to cold" true
    (List.equal (List.equal Linconstr.equal) cold warm);
  List.iter
    (fun conj ->
      check "memoized sat verdict agrees with the simplex oracle" true
        (Fourier_motzkin.satisfiable_conj conj
        = Fourier_motzkin.satisfiable_conj_simplex conj))
    cold

(* ------------------------------------------------------------------ *)
(* Explicit lifecycle: shutdown is a fence, not a one-way door          *)
(* ------------------------------------------------------------------ *)

let test_shutdown_idempotent_and_restart () =
  with_forced @@ fun () ->
  let arr = Array.init 128 Fun.id in
  let expect = Array.map (fun x -> (x * 7) + 1) arr in
  let run () = Par.map ~domains:4 (fun x -> (x * 7) + 1) arr in
  check "warm pool computes" true (run () = expect);
  check "workers running before shutdown" true (Pool.size () >= 1);
  Pool.shutdown ();
  check_int "no workers after shutdown" 0 (Pool.size ());
  Pool.shutdown ();
  Pool.shutdown ();
  check_int "repeated shutdown is a no-op" 0 (Pool.size ());
  (* a batch submitted after shutdown restarts the pool transparently *)
  check "pool restarts on the next batch" true (run () = expect);
  check "workers respawned" true (Pool.size () >= 1)

let test_ensure_explicit_restart () =
  with_forced @@ fun () ->
  Pool.shutdown ();
  check_int "fenced" 0 (Pool.size ());
  Pool.ensure 2;
  check_int "ensure respawns exactly the asked width" 2 (Pool.size ());
  Pool.ensure 2;
  check_int "ensure is idempotent at the same width" 2 (Pool.size ());
  Pool.ensure 1;
  check_int "ensure never shrinks" 2 (Pool.size ());
  let spawned_before = Pool.spawned () in
  let arr = Array.init 64 Fun.id in
  let out = Par.map ~domains:2 (fun x -> x * x) arr in
  check "work after explicit ensure" true
    (out = Array.map (fun x -> x * x) arr);
  check_int "batch at the ensured width spawns nothing" spawned_before
    (Pool.spawned ())

let () =
  Alcotest.run "cqa_pool"
    [
      ( "reuse",
        [ Alcotest.test_case "workers spawn once and persist" `Quick
            test_domain_reuse ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown idempotent, restart transparent"
            `Quick test_shutdown_idempotent_and_restart;
          Alcotest.test_case "ensure respawns after shutdown" `Quick
            test_ensure_explicit_restart ] );
      ( "determinism",
        [ Alcotest.test_case "map across pool sizes" `Quick
            test_map_determinism;
          Alcotest.test_case "fold across pool sizes" `Quick
            test_fold_determinism;
          Alcotest.test_case "volume sweep pooled = sequential" `Quick
            test_sweep_pool_vs_sequential;
          Alcotest.test_case "sampler pooled = inline" `Quick
            test_sampler_pool_invariance ] );
      ( "exceptions",
        [ Alcotest.test_case "map: lowest index wins" `Quick
            test_map_exception_index_order;
          Alcotest.test_case "fold: lowest chunk wins" `Quick
            test_fold_exception_chunk_order ] );
      ( "nesting",
        [ Alcotest.test_case "nested calls run inline" `Quick
            test_nested_fallback ] );
      ( "striped tables",
        [ Alcotest.test_case "1-stripe vs 8-stripe agreement" `Quick
            test_striped_agreement;
          Alcotest.test_case "eviction keeps the global bound" `Quick
            test_striped_eviction_bound;
          Alcotest.test_case "qe_vertex through the sharded memos" `Quick
            test_qe_vertex_sharded_memo ] );
    ]
