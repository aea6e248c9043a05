(* Benchmark harness: one Bechamel test per experiment (E1-E12 of DESIGN.md)
   plus the substrate operations they rely on.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_vc
open Cqa_core
open Cqa_workload

let q = Q.of_int
let qq = Q.of_ints

(* ------------------------------------------------------------------ *)
(* Fixtures (built once, outside the timed region)                     *)
(* ------------------------------------------------------------------ *)

let dv2 = Semilinear.default_vars 2

let fixed_semilinear dim seed =
  let prng = Prng.create seed in
  Generators.semilinear prng ~dim ~disjuncts:2

let s2 = fixed_semilinear 2 101
let s3 = fixed_semilinear 3 102

let pentagon_db = Paper_examples.pentagon_db ()
let polygon_term = Compile.polygon_area_term ~rel:"P"

let ef_pair =
  match Ef_game.separating_counterexample ~rounds:2 ~c1:(q 3) ~c2:(q 3) with
  | Some p -> p
  | None -> assert false

let circuit_12 =
  let x = Var.of_string "x" and y = Var.of_string "y" in
  Circuit.of_sentence ~preds:1 ~n:12
    (Formula.Exists
       ( x,
         Formula.Exists
           ( y,
             Formula.conj
               [ Formula.Atom (Circuit.Lt (x, y));
                 Formula.Atom (Circuit.Pred (0, x));
                 Formula.Atom (Circuit.Pred (0, y)) ] ) ))

let tri_db = Paper_examples.triangle_db ()

let sample_1k =
  let prng = Prng.create 55 in
  Approx_volume.sample_points ~prng ~dim:2 1000

(* The triangle's membership oracle, compiled once: the e7 rows time the
   scoring of a retained sample, as [Exec]'s sampler does. *)
let tri_oracle = Volume_approx.compile tri_db dv2 (Ast.Rel ("P", Array.to_list dv2))

let e7_estimate () =
  Approx_volume.fraction_of_bits
    (Approx_volume.score ~n:1000 (Volume_approx.test tri_oracle sample_1k))

let prop5_inst, prop5_rel = Paper_examples.prop5_instance ~bits:4

let e10_poly dim =
  let cube = Cqa_geom.Hpolytope.cube dim in
  let slice =
    Cqa_geom.Hpolytope.make dim
      [ { Cqa_geom.Hpolytope.normal = Array.init dim (fun i -> q (1 + (i mod 3)));
          offset = q dim } ]
  in
  Cqa_geom.Hpolytope.intersect cube slice

let p4 = e10_poly 4

let quadrant =
  Semilinear.of_conjunction dv2
    [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
      Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero ]

let boxes_union =
  let prng = Prng.create 33 in
  Semilinear.make dv2
    (List.init 3 (fun _ -> Generators.box_conjunction prng ~vars:dv2 ~lo:(-4) ~hi:4))

let density_formula =
  (* forall x y. x < y -> exists z. x < z < y *)
  let x = Var.of_string "x" and y = Var.of_string "y" and z = Var.of_string "z" in
  Formula.forall_many [ x; y ]
    (Formula.implies
       (Formula.Atom (Linconstr.lt (Linexpr.var x) (Linexpr.var y)))
       (Formula.Exists
          ( z,
            Formula.And
              ( Formula.Atom (Linconstr.lt (Linexpr.var x) (Linexpr.var z)),
                Formula.Atom (Linconstr.lt (Linexpr.var z) (Linexpr.var y)) ) )))

let lp_system =
  let x = Linexpr.var (Var.of_string "x") and y = Linexpr.var (Var.of_string "y") in
  let z = Linexpr.var (Var.of_string "z") in
  [ Linconstr.le (Linexpr.add (Linexpr.add x y) z) (Linexpr.const (q 10));
    Linconstr.le x (Linexpr.const (q 4));
    Linconstr.le y (Linexpr.const (q 5));
    Linconstr.ge x Linexpr.zero; Linconstr.ge y Linexpr.zero;
    Linconstr.ge z Linexpr.zero;
    Linconstr.le (Linexpr.sub y x) (Linexpr.const (q 2)) ]

let lp_objective =
  Linexpr.of_list Q.zero
    [ (q 3, Var.of_string "x"); (q 2, Var.of_string "y"); (Q.one, Var.of_string "z") ]

let big_a = Bigint.of_string (String.concat "" (List.init 8 (fun _ -> "123456789")))
let big_b = Bigint.of_string (String.concat "" (List.init 8 (fun _ -> "987654321")))

(* Arithmetic micro-bench pools: small operands fit the native fast path,
   big operands force the limb tier, mixed interleaves both. *)
let q_small_pool =
  Array.init 64 (fun i -> Q.of_ints ((i * 7) - 224) (1 + (i mod 9)))

let q_big_pool =
  Array.init 16 (fun i ->
      Q.make
        (Bigint.mul big_a (Bigint.of_int (2 * i + 1)))
        (Bigint.mul big_b (Bigint.of_int (i + 3))))

let q_mixed_pool =
  Array.init 64 (fun i ->
      if i mod 8 = 0 then q_big_pool.(i / 8 mod 16) else q_small_pool.(i))

let int_pool =
  Array.init 64 (fun i -> Bigint.of_int (((i * 92821) + 1) * ((i mod 11) + 1)))

let sturm_poly =
  (* (x^2-2)(x^2-3)(x-1) *)
  Cqa_poly.Upoly.mul
    (Cqa_poly.Upoly.mul
       (Cqa_poly.Upoly.of_int_coeffs [ -2; 0; 1 ])
       (Cqa_poly.Upoly.of_int_coeffs [ -3; 0; 1 ]))
    (Cqa_poly.Upoly.of_int_coeffs [ -1; 1 ])

let sqrt2 =
  List.nth (Cqa_poly.Algnum.roots_of (Cqa_poly.Upoly.of_int_coeffs [ -2; 0; 1 ])) 1

let sqrt3 =
  List.nth (Cqa_poly.Algnum.roots_of (Cqa_poly.Upoly.of_int_coeffs [ -3; 0; 1 ])) 1

let cells_a =
  Cell1.union (Cell1.closed_interval Q.zero Q.one) (Cell1.open_interval (q 2) (q 4))

let cells_b =
  Cell1.union (Cell1.point Q.half) (Cell1.closed_interval (q 3) (q 5))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

let experiment_tests =
  [ Test.make ~name:"e1_blowup_bounds"
      (stage (fun () ->
           Bounds.km_formula_size ~eps:0.1 ~delta:0.25 ~vc_dim:4 ~m:2
             ~atoms_in_phi:20));
    Test.make ~name:"e2_ef_game_rank2"
      (stage (fun () ->
           let a, b = ef_pair in
           Ef_game.duplicator_wins 2 a b));
    Test.make ~name:"e3_trivial_approx"
      (stage (fun () -> Trivial_approx.trivial_approx s2));
    Test.make ~name:"e4_circuit_separation_n12"
      (stage (fun () ->
           Circuit.separates_cardinalities ~c1:(qq 1 3) ~c2:(qq 2 3) ~n:12
             circuit_12));
    Test.make ~name:"e5_volume_sweep_2d"
      (stage (fun () -> Volume_exact.volume_sweep s2));
    Test.make ~name:"e5_volume_incl_excl_2d"
      (stage (fun () -> Volume_exact.volume_incl_excl s2));
    Test.make ~name:"e5_volume_sweep_3d"
      (stage (fun () -> Volume_exact.volume_sweep s3));
    Test.make ~name:"e6_polygon_program_pentagon"
      (stage (fun () -> Eval.eval_term pentagon_db Var.Map.empty polygon_term));
    Test.make ~name:"e7_sample_estimate_1k"
      (stage e7_estimate);
    Test.make ~name:"e8_vc_lower_bits4"
      (stage (fun () ->
           let ground = List.map (fun i -> [| q i |]) [ 0; 1; 2; 3 ] in
           let params = List.init 16 (fun a -> q a) in
           Definable_family.empirical_vc_dim ~params ~ground ~mem:(fun a pt ->
               Instance.mem prop5_inst prop5_rel [| a; pt.(0) |])));
    Test.make ~name:"e9_vc_upper_halflines_64"
      (stage (fun () ->
           let prng = Prng.create 11 in
           let ground = Generators.finite_set prng ~size:64 ~lo:0 ~hi:100 in
           let pts = List.map (fun v -> [| v |]) ground in
           Definable_family.empirical_vc_dim
             ~params:(List.map (fun v -> Q.add v Q.half) ground)
             ~ground:pts
             ~mem:(fun a pt -> Q.leq pt.(0) a)));
    Test.make ~name:"e10_exact_lasserre_dim4"
      (stage (fun () -> Cqa_geom.Lasserre.volume p4));
    Test.make ~name:"e10_monte_carlo_dim4_m500"
      (stage (fun () ->
           let prng = Prng.create 3 in
           let hits = ref 0 in
           for _ = 1 to 500 do
             let pt = Array.init 4 (fun _ -> Prng.q_unit prng) in
             if Cqa_geom.Hpolytope.contains p4 pt then incr hits
           done;
           !hits));
    Test.make ~name:"e11_mu_quadrant" (stage (fun () -> Mu.mu quadrant));
    Test.make ~name:"e12_varindep_grid_volume"
      (stage (fun () ->
           if Var_indep.is_variable_independent boxes_union then
             Var_indep.grid_volume boxes_union
           else Q.zero)) ]

(* Each micro test folds its whole pool so one "run" is a batch of pool-size
   operations; pool contents are opaque to the optimizer via the fold. *)
let fold_pairs pool f init =
  let n = Array.length pool in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc pool.(i) pool.((i + 1) mod n)
  done;
  !acc

let arith_micro_tests =
  [ Test.make ~name:"q_add_small_64"
      (stage (fun () -> fold_pairs q_small_pool (fun acc a b -> Q.add acc (Q.add a b)) Q.zero));
    Test.make ~name:"q_sub_small_64"
      (stage (fun () -> fold_pairs q_small_pool (fun acc a b -> Q.add acc (Q.sub a b)) Q.zero));
    Test.make ~name:"q_mul_small_64"
      (stage (fun () -> fold_pairs q_small_pool (fun acc a b -> Q.add acc (Q.mul a b)) Q.zero));
    Test.make ~name:"q_compare_small_64"
      (stage (fun () ->
           fold_pairs q_small_pool
             (fun acc a b -> if Q.compare a b < 0 then acc + 1 else acc)
             0));
    Test.make ~name:"q_add_mixed_64"
      (stage (fun () -> fold_pairs q_mixed_pool (fun acc a b -> Q.add acc (Q.add a b)) Q.zero));
    Test.make ~name:"q_mul_big_16"
      (stage (fun () ->
           fold_pairs q_big_pool (fun acc a b -> Q.add acc (Q.mul a b)) Q.zero));
    Test.make ~name:"bigint_add_small_64"
      (stage (fun () ->
           fold_pairs int_pool (fun acc a b -> Bigint.add acc (Bigint.add a b)) Bigint.zero));
    Test.make ~name:"bigint_mul_small_64"
      (stage (fun () ->
           fold_pairs int_pool (fun acc a b -> Bigint.add acc (Bigint.mul a b)) Bigint.zero));
    Test.make ~name:"bigint_gcd_small_64"
      (stage (fun () ->
           fold_pairs int_pool
             (fun acc a b -> Bigint.add acc (Bigint.gcd a b))
             Bigint.zero));
    Test.make ~name:"bigint_gcd_72digits"
      (stage (fun () -> Bigint.gcd (Bigint.mul big_a big_b) (Bigint.mul big_b big_b))) ]

(* Domain-parallel sampling estimator: same membership oracle and sample
   size across domain counts, so the ns/run ratios are the scaling curve. *)
let sampler_mem = Cqa_geom.Hpolytope.contains p4

let sampler_test domains =
  Test.make ~name:(Printf.sprintf "sampler_random_2k_dom%d" domains)
    (stage (fun () ->
         let prng = Prng.create 7 in
         Approx_volume.estimate_random ~domains ~prng ~dim:4 ~n:2000 sampler_mem))

let sampler_tests =
  [ sampler_test 1; sampler_test 2; sampler_test 4;
    Test.make ~name:"sampler_halton_1k_dom1"
      (stage (fun () -> Approx_volume.estimate_halton ~domains:1 ~dim:4 ~n:1000 sampler_mem));
    Test.make ~name:"sampler_halton_1k_dom4"
      (stage (fun () -> Approx_volume.estimate_halton ~domains:4 ~dim:4 ~n:1000 sampler_mem)) ]

let substrate_tests =
  [ Test.make ~name:"bigint_mul_72digits" (stage (fun () -> Bigint.mul big_a big_b));
    Test.make ~name:"fm_qe_density" (stage (fun () -> Fourier_motzkin.qe density_formula));
    Test.make ~name:"fm_sat_7atoms"
      (stage (fun () -> Fourier_motzkin.satisfiable_conj lp_system));
    Test.make ~name:"simplex_maximize_7x3"
      (stage (fun () -> Simplex.maximize ~objective:lp_objective ~constraints:lp_system));
    Test.make ~name:"cell1_union" (stage (fun () -> Cell1.union cells_a cells_b));
    Test.make ~name:"sturm_isolate_deg5"
      (stage (fun () -> Cqa_poly.Upoly.isolate_roots sturm_poly));
    Test.make ~name:"algnum_compare_sqrt2_sqrt3"
      (stage (fun () -> Cqa_poly.Algnum.compare sqrt2 sqrt3));
    Test.make ~name:"lasserre_cube_dim4"
      (stage (fun () -> Cqa_geom.Lasserre.volume (Cqa_geom.Hpolytope.cube 4)));
    Test.make ~name:"semilinear_membership"
      (stage (fun () -> Semilinear.mem s2 [| Q.half; Q.half |])) ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Collected (name, ns/run) pairs, emitted as JSON at exit so BENCH_*.json
   snapshots can be diffed across PRs. *)
let json_results : (string * float) list ref = ref []

(* BENCH_SMOKE=1 shrinks the per-test quota to a fraction of a second: the
   `make verify` smoke run only checks that every benchmark still executes
   and emits JSON, not that the numbers are stable. *)
let smoke =
  match Sys.getenv_opt "BENCH_SMOKE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let run_group ?(stabilize = true) name tests =
  Printf.printf "\n== %s ==\n%!" name;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  (* The full run stabilizes the GC before each test: without it a test
     inherits the heap the previous tests grew, which biased e.g. the
     thm3_*_dom4 estimates a few percent above their dom1 counterparts
     purely by run order.  The smoke run skips it to stay fast.
     ~stabilize:false opts a group out even in the full run: the serve
     benches keep a server domain alive in the background, so the live
     word count never settles and stabilization aborts the whole run. *)
  let cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ~stabilize:false ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize ()
  in
  let estimate test =
    let results = Benchmark.all cfg instances test in
    let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
    let out = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> out := (name, Some est) :: !out
        | _ -> out := (name, None) :: !out)
      analyzed;
    !out
  in
  let emit (name, est) =
    match est with
    | Some est ->
        json_results := (name, est) :: !json_results;
        if est > 1e9 then Printf.printf "%-36s %10.3f s/run\n%!" name (est /. 1e9)
        else if est > 1e6 then
          Printf.printf "%-36s %10.3f ms/run\n%!" name (est /. 1e6)
        else if est > 1e3 then
          Printf.printf "%-36s %10.3f us/run\n%!" name (est /. 1e3)
        else Printf.printf "%-36s %10.1f ns/run\n%!" name est
    | None -> Printf.printf "%-36s (no estimate)\n%!" name
  in
  if smoke then List.iter (fun t -> List.iter emit (estimate t)) tests
  else begin
    (* ABBA: measure the group forward, then reversed, and average the two
       estimates per test.  Slow drift across the group (frequency scaling,
       allocator state) hits opposite ends of the two passes, so it cancels
       instead of systematically taxing whichever test runs last — the
       dom1/dom4 pairs of a group become directly comparable. *)
    let fwd = List.concat_map estimate tests in
    let rev = List.concat_map estimate (List.rev tests) in
    List.iter
      (fun (name, e1) ->
        let avg =
          match (e1, List.assoc_opt name rev) with
          | Some a, Some (Some b) -> Some ((a +. b) /. 2.)
          | _ -> e1
        in
        emit (name, avg))
      fwd
  end

let emit_json () =
  let path = try Sys.getenv "BENCH_JSON" with Not_found -> "BENCH.json" in
  let oc = open_out path in
  let entries = List.rev !json_results in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %.1f%s\n" name ns
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d entries)\n%!" path (List.length entries)

(* Ablations of the quantifier-elimination pipeline (cold cache each run):
   the DESIGN.md design-choice knobs, measured on the Section 5 vertex
   formula over the pentagon database. *)
let ablation_formula =
  let v1 = Var.of_string "v1" and v2 = Var.of_string "v2" in
  let f = Compile.vertex_formula ~rel:"P" v1 v2 in
  Eval.reduce_linear pentagon_db Var.Map.empty f

let with_knobs ~tightening ~elim_pruning ~absorption f =
  let o = Fourier_motzkin.optimizations in
  let saved =
    ( o.Fourier_motzkin.tightening,
      o.Fourier_motzkin.elim_pruning,
      o.Fourier_motzkin.absorption )
  in
  o.Fourier_motzkin.tightening <- tightening;
  o.Fourier_motzkin.elim_pruning <- elim_pruning;
  o.Fourier_motzkin.absorption <- absorption;
  Fun.protect
    ~finally:(fun () ->
      let t, p, a = saved in
      o.Fourier_motzkin.tightening <- t;
      o.Fourier_motzkin.elim_pruning <- p;
      o.Fourier_motzkin.absorption <- a)
    f

let ablation_tests =
  let std ~tightening ~elim_pruning ~absorption () =
    with_knobs ~tightening ~elim_pruning ~absorption (fun () ->
        Fourier_motzkin.clear_qe_cache ();
        Fourier_motzkin.qe ablation_formula)
  in
  [ Test.make ~name:"qe_vertex_all_optimizations"
      (stage (std ~tightening:true ~elim_pruning:true ~absorption:true));
    Test.make ~name:"qe_vertex_no_tightening"
      (stage (std ~tightening:false ~elim_pruning:true ~absorption:true));
    Test.make ~name:"qe_vertex_no_elim_pruning"
      (stage (std ~tightening:true ~elim_pruning:false ~absorption:true));
    Test.make ~name:"qe_vertex_no_absorption"
      (stage (std ~tightening:true ~elim_pruning:true ~absorption:false)) ]

(* Theorem 3 exact-volume engine: the domain-scaling curve of the sweep, the
   incremental vertex enumeration, and the cold-cache end-to-end pipeline
   (QE memo + satisfiability memo cleared each run). *)
let volume_domain_test domains =
  Test.make ~name:(Printf.sprintf "thm3_volume_sweep_3d_dom%d" domains)
    (stage (fun () -> Volume_exact.volume_sweep ~domains s3))

let exact_volume_tests =
  [ volume_domain_test 1; volume_domain_test 2; volume_domain_test 4;
    Test.make ~name:"thm3_vertex_enum_3d"
      (stage (fun () -> Volume_exact.arrangement_vertices s3));
    Test.make ~name:"thm3_incl_excl_2d_dom1"
      (stage (fun () -> Volume_exact.volume_incl_excl ~domains:1 s2));
    Test.make ~name:"thm3_incl_excl_2d_dom4"
      (stage (fun () -> Volume_exact.volume_incl_excl ~domains:4 s2));
    Test.make ~name:"thm3_end_to_end_cold_3d"
      (stage (fun () ->
           Fourier_motzkin.clear_qe_cache ();
           Volume_exact.volume_sweep s3));
    Test.make ~name:"thm3_section_function_3d"
      (stage (fun () -> Volume_param.section_volume_function s3)) ]

(* Persistent-pool fan-out with the adaptive cutoff bypassed (mode
   Always): the cost of actually dispatching chunks to pool workers, to
   compare against the dom4 rows above, which the cutoff now runs
   sequentially whenever the fan-out cannot pay.  The pool is warmed
   outside the timed region, so iterations measure reuse, not spawning —
   pool.domains.spawned stays constant across them. *)
let with_pool_always f =
  Cqa_conc.Pool.set_mode Cqa_conc.Pool.Always;
  Fun.protect ~finally:(fun () -> Cqa_conc.Pool.set_mode Cqa_conc.Pool.Auto) f

let pool_tests =
  [ Test.make ~name:"pool_sweep_3d_dom4"
      (stage (fun () ->
           with_pool_always (fun () -> Volume_exact.volume_sweep ~domains:4 s3)));
    Test.make ~name:"pool_sampler_random_2k_dom4"
      (stage (fun () ->
           with_pool_always (fun () ->
               let prng = Prng.create 7 in
               Approx_volume.estimate_random ~domains:4 ~prng ~dim:4 ~n:2000
                 sampler_mem))) ]

(* ------------------------------------------------------------------ *)
(* Telemetry counter deltas                                            *)
(* ------------------------------------------------------------------ *)

module Telemetry = Cqa_telemetry.Telemetry

(* The Section 3 blowup query (examples/queries/bad_qe_blowup.cq), inlined
   so the harness does not depend on the working directory. *)
let blowup_src =
  "exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . \
   (u < x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < v \
   /\\ 0 <= x1 /\\ x5 <= 1)"

(* One untimed single-shot run per representative workload, with telemetry
   enabled: the counter deltas land in BENCH.json next to the timings as
   "ctr:<workload>:<counter>" keys (nonzero counters only).  Telemetry stays
   disabled during the bechamel timed runs above so the instrumentation
   never skews a timing; caches are cleared up front so the deltas are
   independent of whatever the benchmark groups did before; only
   single-domain workloads are used, so every delta is deterministic
   (including the memo hit/miss splits). *)
let cold_caches () =
  Fourier_motzkin.clear_qe_cache ();
  Flatrow.clear_cache ();
  Semilinear.clear_bbox_cache ();
  Simplex.clear_basis_cache ();
  Plan.clear_cache ()

(* ------------------------------------------------------------------ *)
(* Numeric kernel ablation: float filter on vs off                     *)
(* ------------------------------------------------------------------ *)

(* The float-filtered kernel is certified byte-identical to the exact
   one, so its only observable is speed: these rows measure the same
   cold workloads under both kernels.  The bench binary pins the kernel
   itself (see the driver) rather than inheriting CQA_KERNEL, so the
   committed BENCH.json baseline means the same thing on every CI leg;
   the ablation rows flip the switch inside the timed closure. *)
let kernel_test name kernel job =
  Test.make ~name
    (stage (fun () ->
         Flatrow.set_kernel kernel;
         Fun.protect ~finally:(fun () -> Flatrow.set_kernel true) job))

let kernel_tests =
  let qe_cold () =
    cold_caches ();
    ignore (Fourier_motzkin.qe ablation_formula)
  in
  let fm_sat_cold () =
    cold_caches ();
    ignore (Fourier_motzkin.satisfiable_conj lp_system)
  in
  let sweep_cold () =
    cold_caches ();
    ignore (Volume_exact.volume_sweep s3)
  in
  let qe_density_cold () =
    cold_caches ();
    ignore (Fourier_motzkin.qe density_formula)
  in
  let polygon_cold () =
    cold_caches ();
    ignore (Eval.eval_term pentagon_db Var.Map.empty polygon_term)
  in
  [ kernel_test "kernel_qe_vertex_filtered" true qe_cold;
    kernel_test "kernel_qe_vertex_exact" false qe_cold;
    kernel_test "kernel_polygon_cold_filtered" true polygon_cold;
    kernel_test "kernel_polygon_cold_exact" false polygon_cold;
    kernel_test "kernel_qe_density_filtered" true qe_density_cold;
    kernel_test "kernel_qe_density_exact" false qe_density_cold;
    kernel_test "kernel_fm_sat_cold_filtered" true fm_sat_cold;
    kernel_test "kernel_fm_sat_cold_exact" false fm_sat_cold;
    kernel_test "kernel_sweep_3d_filtered" true sweep_cold;
    kernel_test "kernel_sweep_3d_exact" false sweep_cold ]

(* ------------------------------------------------------------------ *)
(* Compiled plans: compile cost, cold vs warm re-execution             *)
(* ------------------------------------------------------------------ *)

(* The param_sweep.cq shape (inlined, like blowup_src): one parameter slot
   u over coordinates (y1, y2); the section volume is the Lemma 5
   piecewise polynomial (1 - u^2) / 2 on [0, 1]. *)
let param_sweep_src = "0 <= u /\\ u < y1 /\\ y1 < 1 /\\ 0 <= y2 /\\ y2 <= y1"
let plan_formula = Parser.formula_of_string param_sweep_src
let plan_coords = [| Var.of_string "y1"; Var.of_string "y2" |]
let plan_params = [| Var.of_string "u" |]
let plan_db = Db.empty Schema.empty

let plan_compile () =
  Cqa_analysis.Planner.compile ~db:plan_db ~params:plan_params
    ~coords:plan_coords plan_formula

(* Interior, non-breakpoint parameter values (odd multiples of 1/37, all
   strictly inside (0, 1)): the warm path stays on the compiled
   piecewise-polynomial evaluation, never the breakpoint slow path. *)
let plan_param_values = Array.init 16 (fun i -> [| qq ((2 * i) + 1) 37 |])

let plan_warm_idx = ref 0

let plan_tests =
  (* warm fixture: plan compiled and first-executed outside the timed
     region, so iterations measure cache-hit compile + memoized execution *)
  let warm_plan = plan_compile () in
  ignore (Exec.volume_at warm_plan plan_db plan_param_values.(0));
  [ Test.make ~name:"plan_compile_sweep_cold"
      (stage (fun () ->
           Plan.clear_cache ();
           plan_compile ()));
    Test.make ~name:"plan_compile_sweep_hit"
      (stage (fun () -> plan_compile ()));
    Test.make ~name:"plan_exec_cold_sweep"
      (stage (fun () ->
           cold_caches ();
           let p = plan_compile () in
           Exec.volume_at p plan_db plan_param_values.(0)));
    Test.make ~name:"plan_exec_warm_sweep"
      (stage (fun () ->
           let p = plan_compile () in
           let i = !plan_warm_idx in
           plan_warm_idx := (i + 1) mod Array.length plan_param_values;
           Exec.volume_at p plan_db plan_param_values.(i))) ]

(* ------------------------------------------------------------------ *)
(* Incremental maintenance: small-delta updates vs full recompute      *)
(* ------------------------------------------------------------------ *)

(* One "update session" per iteration, always from the same initial
   state: a fresh database seeded with a fixed 3-d semilinear relation
   (three generated polytopes in [-5, 5]^3), one warming query, then four
   small corner-box inserts each followed by a query.  The incremental
   rows answer the post-update queries through the executor's delta-slab
   refresh (only pieces meeting the delta's last-axis slab recompute —
   each box dirties a 1/16-wide slab of a 10-wide parameter range); the
   recompute row resets the plan's execution states before each query,
   forcing the full Theorem 3 sweep the maintenance machinery exists to
   avoid.  The unclamped volume is queried so the maintained piece list
   is the base set's own (clamping to the unit cube would empty the
   generated base and leave nothing to maintain).  Fresh-database
   sessions keep iterations identical — repeated in-place edits on one
   database would grow its DNF across iterations and skew the
   estimates. *)
let update_schema = Schema.of_list [ ("R", 3) ]

let update_base =
  let prng = Prng.create 103 in
  Generators.semilinear prng ~dim:3 ~disjuncts:3

let update_boxes =
  Array.init 4 (fun k ->
      let lo = qq k 16 and hi = qq (k + 1) 16 in
      Semilinear.box [| (lo, hi); (lo, hi); (lo, hi) |])

let update_plan =
  let vx = Var.of_string "x" and vy = Var.of_string "y" in
  let vz = Var.of_string "z" in
  Cqa_analysis.Planner.compile
    ~db:(Db.empty update_schema)
    ~coords:[| vx; vy; vz |]
    (Ast.Rel ("R", [ vx; vy; vz ]))

let update_session ~domains ~recompute =
  let db = Db.empty update_schema in
  ignore (Db.apply_update db (Db.Insert ("R", update_base)));
  let v = ref (Exec.volume ~domains update_plan db) in
  Array.iter
    (fun b ->
      ignore (Db.apply_update db (Db.Insert ("R", b)));
      if recompute then Plan.reset_states update_plan;
      v := Exec.volume ~domains update_plan db)
    update_boxes;
  !v

let update_tests () =
  (* fixture sanity: the incremental session and the recompute session
     must end on the same exact answer, or the ratio below is vacuous *)
  let vi = update_session ~domains:1 ~recompute:false in
  let vr = update_session ~domains:1 ~recompute:true in
  if not (Q.equal vi vr) then
    failwith "update bench fixture: incremental and recompute answers differ";
  [ Test.make ~name:"update_small_delta_dom1"
      (stage (fun () -> update_session ~domains:1 ~recompute:false));
    Test.make ~name:"update_small_delta_dom4"
      (stage (fun () -> update_session ~domains:4 ~recompute:false));
    Test.make ~name:"update_vs_recompute"
      (stage (fun () -> update_session ~domains:1 ~recompute:true)) ]

(* ------------------------------------------------------------------ *)
(* Certified rewriting: rule fixpoint, memo, equivalence, cache wins   *)
(* ------------------------------------------------------------------ *)

module Rw = Cqa_analysis.Rewrite
module Eqv = Cqa_analysis.Equiv

(* A respelled param_sweep_src: conjuncts reordered, one atom scaled, a
   tautological conjunct appended.  The rewriter must send it to the same
   normal form as param_sweep_src — asserted at fixture time below — so
   compiling it against a warm plan cache is a pure cache hit. *)
let spelled_src =
  "y2 <= y1 /\\ 0 <= 2 * y2 /\\ u < y1 /\\ 0 <= u /\\ y1 < 1 /\\ 1 < 2"

let spelled_formula = Parser.formula_of_string spelled_src

(* A padded unit square: a tautological disjunct ([1 < 2] folds to true)
   shields a quantified order chain that is pure dead weight — but a raw
   compile cannot know that, so the engine pays three Fourier-Motzkin
   eliminations and a doubled sweep for it.  Rewriting strips the query to
   the bare square, so the raw-vs-rewritten execution pair below isolates
   what dead structure costs the exact engine. *)
let padded_src =
  "0 <= y1 /\\ y1 <= 1 /\\ 0 <= y2 /\\ y2 <= 1 /\\ \
   (1 < 2 \\/ exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . \
   exists x6 . exists x7 . exists x8 . exists x9 . \
   (y1 < x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < x6 \
   /\\ x6 < x7 /\\ x7 < x8 /\\ x8 < x9 /\\ x9 < y2 /\\ 0 <= x1 \
   /\\ x9 <= 1))"

let padded_formula = Parser.formula_of_string padded_src

(* A perturbed sweep (upper bound moved): semantically distinct from
   param_sweep_src, so Equiv must produce a separating witness. *)
let perturbed_src = "0 <= u /\\ u < y1 /\\ y1 < 2 /\\ 0 <= y2 /\\ y2 <= y1"
let perturbed_formula = Parser.formula_of_string perturbed_src

let plan_compile_spelled () =
  Cqa_analysis.Planner.compile ~db:plan_db ~params:plan_params
    ~coords:plan_coords spelled_formula

let rewrite_tests () =
  (* fixture sanity: the spelling really does share the sweep's plan, and
     the padded square really does collapse — otherwise the "hit" and
     "win" rows below would silently measure something else *)
  cold_caches ();
  let p1 = plan_compile () in
  let p2 = plan_compile_spelled () in
  if Plan.id p1 <> Plan.id p2 then
    failwith "rewrite bench fixture: spellings do not share a plan";
  (let r = Rw.rewrite padded_formula in
   if r.Rw.atoms_after >= r.Rw.atoms_before then
     failwith "rewrite bench fixture: padded query did not shrink");
  [ (* the full rule fixpoint: the price of one cache-miss
       normalization *)
    Test.make ~name:"rewrite_fixpoint_sweep"
      (stage (fun () -> Rw.rewrite plan_formula));
    Test.make ~name:"rewrite_fixpoint_padded"
      (stage (fun () -> Rw.rewrite padded_formula));
    (* the certified mode: every fired rule re-checked by Equiv *)
    Test.make ~name:"rewrite_verified_sweep"
      (stage (fun () ->
           Fourier_motzkin.clear_qe_cache ();
           Rw.rewrite ~verify:true plan_formula));
    (* equivalence decision, cold QE cache each round *)
    Test.make ~name:"equiv_spellings_equal"
      (stage (fun () ->
           Fourier_motzkin.clear_qe_cache ();
           match Eqv.check plan_formula spelled_formula with
           | Eqv.Equal -> ()
           | _ -> failwith "equiv bench: spellings not Equal"));
    Test.make ~name:"equiv_perturbed_distinct"
      (stage (fun () ->
           Fourier_motzkin.clear_qe_cache ();
           match Eqv.check plan_formula perturbed_formula with
           | Eqv.Distinct _ -> ()
           | _ -> failwith "equiv bench: perturbation not Distinct"));
    (* win #1: a respelled query against a warm cache is a hit (compare
       plan_compile_sweep_cold — without the rewrite pass this spelling
       would miss and recompile) *)
    Test.make ~name:"plan_compile_spelled_hit"
      (stage (fun () -> plan_compile_spelled ()));
    (* win #2: executing the padded square raw (plan compiled without the
       rewrite pass, quantifiers and dead atoms reach the engine) vs
       through the planner's rewritten plan *)
    Test.make ~name:"plan_exec_padded_raw_cold"
      (stage (fun () ->
           cold_caches ();
           let p = Plan.compile padded_formula in
           Exec.volume p plan_db));
    Test.make ~name:"plan_exec_padded_rw_cold"
      (stage (fun () ->
           cold_caches ();
           let p = Cqa_analysis.Planner.compile ~db:plan_db padded_formula in
           Exec.volume p plan_db)) ]

(* ------------------------------------------------------------------ *)
(* Query service: sustained throughput, closed-loop clients            *)
(* ------------------------------------------------------------------ *)

module Server = Cqa_serve.Server
module Sclient = Cqa_serve.Client
module Sproto = Cqa_serve.Protocol
module Tj = Cqa_telemetry.Tjson

(* The repeated-shape serving workload: one plan with two parameter
   slots, per-binding work on the sectioning slow path (VOL over (y1, y2)
   is (v^2 - u^2)/2), fresh bindings per flush cycle so every cycle does
   real engine work instead of replaying a memo. *)
let serve_q = "u < y1 /\\ y1 < v /\\ 0 <= y2 /\\ y2 <= y1 /\\ 0 <= y1"

let serve_plan_req =
  Printf.sprintf {|{"op":"plan","query":%s,"params":["u","v"]}|}
    (Sproto.json_string serve_q)

let serve_binding_ctr = ref 0

let serve_binding () =
  let k = 1 + (!serve_binding_ctr mod 499) in
  incr serve_binding_ctr;
  (Printf.sprintf "%d/1009" k, Printf.sprintf "%d/1009" (k + 500))

let serve_sock_ctr = ref 0

let serve_sock () =
  incr serve_sock_ctr;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cqa-bench-serve-%d-%d.sock" (Unix.getpid ())
       !serve_sock_ctr)

let serve_handles : Server.handle list ref = ref []

let stop_serve_fixtures () =
  List.iter Server.stop_background !serve_handles;
  serve_handles := []

let serve_plan_id_of resp =
  match
    Result.to_option (Tj.parse resp)
    |> Fun.flip Option.bind (Tj.member "plan")
    |> Fun.flip Option.bind Tj.to_float
  with
  | Some f -> int_of_float f
  | None -> failwith ("serve bench: plan registration failed: " ^ resp)

(* One server + a lockstep client population, started outside the timed
   region.  Every bench run serves the same TOTAL number of requests (8),
   split as [conns] concurrent clients x [cycles] rounds, so the ns/run
   numbers of dom1/dom2/dom4 are directly comparable per-request
   throughputs.  Within a cycle all clients request the same binding —
   the thundering-herd shape — so the batcher coalesces each cycle to one
   engine computation; across cycles bindings advance. *)
let serve_total_requests = 8

let serve_fixture ~domains ~conns =
  let cfg =
    {
      (Server.default_config (Server.Unix_path (serve_sock ()))) with
      Server.domains;
      window_us = 2000.;
    }
  in
  let h = Server.start_background cfg in
  serve_handles := h :: !serve_handles;
  let c0 = Sclient.connect (Server.addr_of h) in
  let pid = serve_plan_id_of (Sclient.request c0 serve_plan_req) in
  Sclient.close c0;
  let cs = Array.init conns (fun _ -> Sclient.connect (Server.addr_of h)) in
  (cs, pid)

let serve_closed_loop cs pid =
  let conns = Array.length cs in
  let cycles = serve_total_requests / conns in
  let bindings = Array.init cycles (fun _ -> serve_binding ()) in
  let out =
    Sclient.closed_loop ~conns:cs ~cycles (fun ~cycle ~conn:_ ->
        let u, v = bindings.(cycle) in
        Printf.sprintf {|{"op":"vol","plan":%d,"args":["%s","%s"]}|} pid u v)
  in
  (* a failed response would silently turn the bench into an error loop *)
  Array.iter
    (fun r ->
      if not (String.length r >= 10 && String.sub r 0 10 = {|{"ok":true|})
      then failwith ("serve bench: request failed: " ^ r))
    out

let serve_warm_test ~domains ~conns =
  let cs, pid = serve_fixture ~domains ~conns in
  Test.make ~name:(Printf.sprintf "serve_qps_warm_dom%d" domains)
    (stage (fun () -> serve_closed_loop cs pid))

let serve_tests () =
  let warm1 = serve_warm_test ~domains:1 ~conns:1 in
  let warm2 = serve_warm_test ~domains:2 ~conns:2 in
  let warm4 = serve_warm_test ~domains:4 ~conns:4 in
  (* cold: one client, plan cache and engine memos dropped server-side
     before each run, requests by query text — the first request of every
     run recompiles the plan, the remaining seven hit the refilled
     cache. *)
  let cold_cs, _ = serve_fixture ~domains:1 ~conns:1 in
  let cold_req () =
    let u, v = serve_binding () in
    Printf.sprintf
      {|{"op":"vol","query":%s,"params":["u","v"],"args":["%s","%s"]}|}
      (Sproto.json_string serve_q) u v
  in
  let cold =
    Test.make ~name:"serve_qps_cold_dom1"
      (stage (fun () ->
           let c = cold_cs.(0) in
           ignore (Sclient.request c {|{"op":"reset"}|});
           for _ = 1 to serve_total_requests do
             let r = Sclient.request c (cold_req ()) in
             if not (String.length r >= 10 && String.sub r 0 10 = {|{"ok":true|})
             then failwith ("serve bench: request failed: " ^ r)
           done))
  in
  (* protocol floor: ping round trips, no engine work *)
  let ping_cs, _ = serve_fixture ~domains:1 ~conns:1 in
  let ping =
    Test.make ~name:"serve_ping_dom1"
      (stage (fun () ->
           for _ = 1 to serve_total_requests do
             ignore (Sclient.request ping_cs.(0) {|{"op":"ping"}|})
           done))
  in
  [ warm1; warm2; warm4; cold; ping ]

let counter_workloads =
  [ ("thm3_sweep_3d",
     fun () ->
       cold_caches ();
       ignore (Volume_exact.volume_sweep s3));
    ("qe_vertex",
     fun () ->
       cold_caches ();
       ignore (Fourier_motzkin.qe ablation_formula));
    ("kernel",
     fun () ->
       (* one cold QE + one cold satisfiability under the filtered
          kernel, plus a probe past the filter's 16-variable cap: the
          fm.filter.sure / fm.filter.fallback deltas pin the filter's
          hit rate (and a non-zero fallback count) in BENCH.json
          alongside the timing rows *)
       cold_caches ();
       ignore (Fourier_motzkin.qe ablation_formula);
       ignore (Fourier_motzkin.satisfiable_conj lp_system);
       let wide =
         List.init 17 (fun i ->
             Linconstr.ge
               (Linexpr.var (Var.of_string (Printf.sprintf "w%d" i)))
               Linexpr.zero)
       in
       ignore (Fourier_motzkin.satisfiable_conj wide));
    ("e7_sample_1k",
     fun () -> ignore (e7_estimate ()));
    ("guarded_fallback",
     fun () ->
       cold_caches ();
       let db = Db.empty Schema.empty in
       let p =
         Cqa_analysis.Planner.compile ~db ~budget:1e6
           (Parser.formula_of_string blowup_src)
       in
       ignore (Exec.volume_guarded p db));
    ("serve",
     fun () ->
       (* one deterministic single-client session against a fresh server:
          plan registration, cold and warm parameterized volumes, a
          vol_batch, a ping, then shutdown — every serve.* delta is a pure
          function of this scripted traffic *)
       cold_caches ();
       let cfg = Server.default_config (Server.Unix_path (serve_sock ())) in
       let h = Server.start_background cfg in
       Fun.protect ~finally:(fun () -> Server.stop_background h) @@ fun () ->
       let c = Sclient.connect (Server.addr_of h) in
       Fun.protect ~finally:(fun () -> Sclient.close c) @@ fun () ->
       let pid = serve_plan_id_of (Sclient.request c serve_plan_req) in
       let vol u v =
         ignore
           (Sclient.request c
              (Printf.sprintf
                 {|{"op":"vol","plan":%d,"args":["%s","%s"]}|} pid u v))
       in
       vol "1/8" "7/8";
       vol "1/8" "7/8";
       vol "1/4" "3/4";
       ignore
         (Sclient.request c
            (Printf.sprintf
               {|{"op":"vol_batch","plan":%d,"bindings":[["0","1"],["1/8","1"]]}|}
               pid));
       ignore (Sclient.request c {|{"op":"ping"}|}));
    ("rewrite",
     fun () ->
       (* deterministic rewrite traffic: a cold padded compile (rules fire,
          atoms eliminated), the sweep and its respelling sharing one plan
          (one miss + one hit), and a certified run whose Equiv checks tick
          the plan.equiv.* counters *)
       cold_caches ();
       ignore (Cqa_analysis.Planner.compile ~db:plan_db padded_formula);
       ignore (plan_compile ());
       ignore (plan_compile_spelled ());
       ignore (Rw.rewrite ~verify:true ~db:plan_db spelled_formula));
    ("update",
     fun () ->
       (* deterministic update traffic against a fresh database: seed
          insert, warm query, a localized insert and a localized remove
          each followed by a query, an untouched-region no-op, and a
          stale-free requery — ticks db.update.* and the executor's
          exec.invalidate.* / exec.reuse.* maintenance counters *)
       cold_caches ();
       let db = Db.empty update_schema in
       ignore (Db.apply_update db (Db.Insert ("R", update_base)));
       ignore (Exec.volume update_plan db);
       ignore (Db.apply_update db (Db.Insert ("R", update_boxes.(0))));
       ignore (Exec.volume update_plan db);
       ignore (Db.apply_update db (Db.Remove ("R", update_boxes.(1))));
       ignore (Exec.volume update_plan db);
       ignore
         (Db.apply_update db
            (Db.Remove ("R", Semilinear.empty 3)));
       ignore (Exec.volume update_plan db));
    ("plan",
     fun () ->
       cold_caches ();
       (* one cold compile + execution, one warm re-execution: exercises
          plan.cache.miss/hit, plan.state.*, plan.param.fast and the
          compile probes in a single deterministic-shape run (the
          plan.compile_ns value itself is wall-clock, hence allowlisted
          in bench_check) *)
       let p = plan_compile () in
       ignore (Exec.volume_at p plan_db plan_param_values.(0));
       let p' = plan_compile () in
       ignore (Exec.volume_at p' plan_db plan_param_values.(1))) ]

let run_counter_deltas () =
  Printf.printf "\n== telemetry counter deltas ==\n%!";
  Telemetry.enable ();
  List.iter
    (fun (wname, job) ->
      Telemetry.reset ();
      let before = Telemetry.snapshot () in
      job ();
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      List.iter
        (fun (cname, v) ->
          if v <> 0 then begin
            json_results :=
              (Printf.sprintf "ctr:%s:%s" wname cname, float_of_int v)
              :: !json_results;
            Printf.printf "%-52s %10d\n%!" (wname ^ ":" ^ cname) v
          end)
        d.Telemetry.counters)
    counter_workloads;
  Telemetry.disable ()

let () =
  Printf.printf "cqa benchmark harness (bechamel)\n";
  (* Pin the numeric kernel: baseline numbers are recorded filtered, and
     the kernel_* ablation rows flip the switch per run — inheriting
     CQA_KERNEL here would silently change what every other key
     measures (the CI leg that exports CQA_KERNEL=exact still bench-gates
     against the same filtered baseline). *)
  Flatrow.set_kernel true;
  run_group "arithmetic kernels" arith_micro_tests;
  run_group "parallel sampler" sampler_tests;
  run_group "experiments (one per table/figure)" experiment_tests;
  run_group "substrates" substrate_tests;
  run_group "exact volume engine (Theorem 3)" exact_volume_tests;
  Cqa_conc.Pool.ensure_workers 3;
  run_group "persistent pool (cutoff bypassed)" pool_tests;
  run_group "ablations (QE design choices, cold cache)" ablation_tests;
  run_group "numeric kernel (float filter on/off, cold cache)" kernel_tests;
  run_group "compiled plans (cache + batched re-execution)" plan_tests;
  run_group "incremental maintenance (small-delta updates)" (update_tests ());
  run_group "certified rewriting (rules, equivalence, cache wins)"
    (rewrite_tests ());
  run_group ~stabilize:false "query service (closed-loop clients)"
    (serve_tests ());
  stop_serve_fixtures ();
  run_counter_deltas ();
  emit_json ()
