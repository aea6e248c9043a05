(* Compiled query plans: cache identity, plan-vs-direct agreement across
   domain counts, parameterized re-execution, eviction, and warm-vs-cold
   agreement of the guarded entry points. *)

open Cqa_arith
open Cqa_logic
open Cqa_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qq = Q.of_ints

let parse s =
  match Parser.formula_of_string s with
  | f -> f
  | exception Parser.Parse_error m -> Alcotest.fail ("parse error: " ^ m)

let db0 = Db.empty Schema.empty
let sweep_src = "0 <= y1 /\\ y1 <= 1/2 /\\ 0 <= y2 /\\ y2 <= y1"
let param_src = "0 <= u /\\ u < y1 /\\ y1 < 1 /\\ 0 <= y2 /\\ y2 <= y1"

let blowup_src =
  "exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . \
   (u < x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < v \
   /\\ 0 <= x1 /\\ x5 <= 1)"

let yvars = [| Var.of_string "y1"; Var.of_string "y2" |]

(* ------------------------------------------------------------------ *)
(* Cache identity                                                      *)
(* ------------------------------------------------------------------ *)

let test_cache_identity () =
  Plan.clear_cache ();
  let f1 = parse "exists z . x < z /\\ z < 1 /\\ 0 <= x" in
  let f2 = parse "exists w . x < w /\\ w < 1 /\\ 0 <= x" in
  let f3 = parse "exists z . x < z /\\ z < 2 /\\ 0 <= x" in
  let p1 = Plan.cached f1 in
  let p2 = Plan.cached f2 in
  let p3 = Plan.cached f3 in
  check_int "alpha-equivalent spellings share a plan" (Plan.id p1) (Plan.id p2);
  check "distinct shape gets a distinct plan" true (Plan.id p3 <> Plan.id p1);
  check_int "hit counted" 1 (Plan.hit_count p1);
  check "equal shapes" true (Plan.equal_shape p1 p2);
  check "alpha-normal forms equal" true
    (Plan.equal_formula (Plan.normal p1) (Plan.normal p2));
  (* determinism: recompiling after a clear reproduces the shape hash *)
  let h = Plan.shape_hash p1 in
  Plan.clear_cache ();
  check_int "shape hash deterministic" h (Plan.shape_hash (Plan.cached f2))

let test_hint_of_called_once () =
  Plan.clear_cache ();
  let calls = ref 0 in
  let hint_of _ =
    incr calls;
    Some Dispatch.Exact_semilinear
  in
  let f = parse sweep_src in
  let p1 = Plan.cached ~hint_of f in
  let p2 = Plan.cached ~hint_of f in
  check_int "hint computed only on the miss" 1 !calls;
  check "hint attached" true (Plan.hint p1 = Some Dispatch.Exact_semilinear);
  check_int "hit returns the same plan" (Plan.id p1) (Plan.id p2)

(* ------------------------------------------------------------------ *)
(* Plan-vs-direct agreement across domain counts                       *)
(* ------------------------------------------------------------------ *)

let test_plan_vs_direct_domains () =
  let f = parse sweep_src in
  let direct1 = Volume_exact.volume_of_query ~domains:1 db0 yvars f in
  List.iter
    (fun domains ->
      Plan.clear_cache ();
      let p = Plan.cached ~coords:yvars f in
      let v = Exec.volume ~domains p db0 in
      check "plan = direct, same domain count" true
        (Q.equal v (Volume_exact.volume_of_query ~domains db0 yvars f));
      check "byte-identical across domain counts" true (Q.equal v direct1);
      check "clamped agrees too" true
        (Q.equal
           (Exec.volume_clamped ~domains p db0)
           (Volume_exact.volume_clamped ~domains (Eval.eval_set db0 yvars f))))
    [ 1; 2; 4 ]

let test_volume_of_query_cached () =
  Plan.clear_cache ();
  let f = parse sweep_src in
  (* no hint: the cold run must probe linearity, the warm one must not *)
  let probes0 = Eval.runtime_probes () in
  let p = Plan.cached ~coords:yvars f in
  let v1 = Exec.volume p db0 in
  let probes = Eval.runtime_probes () in
  check "cold run probes linearity" true (probes > probes0);
  let p' = Plan.cached ~coords:yvars f in
  let v2 = Exec.volume p' db0 in
  check_int "replay returns the cached plan" (Plan.id p) (Plan.id p');
  check "warm value identical" true (Q.equal v1 v2);
  check_int "warm hit runs no runtime probe" probes (Eval.runtime_probes ());
  check "matches the unplanned entry" true
    (Q.equal v1 (Volume_exact.volume_of_query db0 yvars f))

(* ------------------------------------------------------------------ *)
(* Parameterized execution                                             *)
(* ------------------------------------------------------------------ *)

let test_param_exec () =
  Plan.clear_cache ();
  let f = parse param_src in
  let p = Plan.cached ~params:[| Var.of_string "u" |] ~coords:yvars f in
  (* section volume above u is (1 - u^2) / 2 on [0, 1] *)
  let expect u = Q.div (Q.sub Q.one (Q.mul u u)) Q.two in
  List.iter
    (fun u ->
      check "closed form at interior values" true
        (Q.equal (Exec.volume_at p db0 [| u |]) (expect u)))
    [ qq 1 3; qq 1 7; qq 2 5; qq 3 4 ];
  (* breakpoints and out-of-range values take the direct-section path and
     still agree *)
  check "breakpoint u = 0" true
    (Q.equal (Exec.volume_at p db0 [| Q.zero |]) (expect Q.zero));
  check "breakpoint u = 1" true
    (Q.is_zero (Exec.volume_at p db0 [| Q.one |]));
  check "outside the range" true
    (Q.is_zero (Exec.volume_at p db0 [| Q.of_int 2 |]));
  (* a batch shares the warm state and agrees with one-shot execution,
     whether the bindings run on one domain or are dealt across four *)
  let us = [ [| qq 1 3 |]; [| qq 3 4 |]; [| Q.zero |]; [| qq 9 10 |] ] in
  List.iter
    (fun domains ->
      List.iter2
        (fun b u -> check "batch = one-shot" true (Q.equal b (Exec.volume_at p db0 u)))
        (Exec.volume_batch ~domains p db0 us)
        us)
    [ 1; 4 ];
  (* domain counts agree on the parameterized path as well *)
  List.iter
    (fun domains ->
      Plan.clear_cache ();
      let p = Plan.cached ~params:[| Var.of_string "u" |] ~coords:yvars f in
      check "volume_at domain-count invariant" true
        (Q.equal (Exec.volume_at ~domains p db0 [| qq 1 3 |]) (expect (qq 1 3))))
    [ 1; 2; 4 ];
  Alcotest.check_raises "binding arity checked"
    (Invalid_argument "Exec.volume_at: expected 1 parameter values, got 2")
    (fun () -> ignore (Exec.volume_at p db0 [| Q.zero; Q.one |]))

(* Bindings strictly outside the Lemma 5 pieces' span answer 0 without a
   sweep, and agree with the direct section's volume; a measure-zero set
   (no pieces at all) keeps the sweep, whose section may well have
   positive measure. *)
let section_at s qs = Array.fold_right (fun q s -> Cqa_linear.Semilinear.section_last s q) qs s

let test_param_out_of_range () =
  let module T = Cqa_telemetry.Telemetry in
  let fast () =
    Option.value ~default:0
      (List.assoc_opt "plan.param.fast" (T.snapshot ()).T.counters)
  in
  let u = Var.of_string "u" in
  let prng = Random.State.make [| 26 |] in
  let outside () =
    let k = 1 + Random.State.int prng 40 and d = 1 + Random.State.int prng 7 in
    if Random.State.bool prng then qq (-k) d else Q.add Q.one (qq k d)
  in
  let bindings = List.init 12 (fun _ -> outside ()) in
  T.enable ();
  T.reset ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let f = parse param_src in
  let s = Eval.eval_set db0 (Array.append yvars [| u |]) f in
  List.iter
    (fun domains ->
      Plan.clear_cache ();
      let p = Plan.cached ~params:[| u |] ~coords:yvars f in
      let before = fast () in
      List.iter
        (fun t ->
          let v = Exec.volume_at ~domains p db0 [| t |] in
          check "out of range = direct section" true
            (Q.equal v (Volume_exact.volume ~domains (section_at s [| t |])));
          check "out of range is 0" true (Q.is_zero v))
        bindings;
      check_int "every out-of-range binding is fast" (List.length bindings)
        (fast () - before))
    [ 1; 2; 4 ];
  let y1 = Var.of_string "y1" in
  let g = parse "0 <= y1 /\\ y1 <= 1 /\\ u = 0" in
  let sg = Eval.eval_set db0 [| y1; u |] g in
  List.iter
    (fun domains ->
      Plan.clear_cache ();
      let p = Plan.cached ~params:[| u |] ~coords:[| y1 |] g in
      List.iter
        (fun t ->
          check "measure-zero set = direct section" true
            (Q.equal
               (Exec.volume_at ~domains p db0 [| t |])
               (Volume_exact.volume ~domains (section_at sg [| t |]))))
        (Q.zero :: Q.one :: bindings);
      check "its section at 0 has length 1" true
        (Q.equal (Exec.volume_at ~domains p db0 [| Q.zero |]) Q.one))
    [ 1; 2; 4 ]

let test_param_validation () =
  Plan.clear_cache ();
  let f = parse sweep_src in
  check "non-free parameter rejected" true
    (match Plan.cached ~params:[| Var.of_string "nope" |] f with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "coordinate/parameter overlap rejected" true
    (match
       Plan.cached ~params:[| Var.of_string "y1" |] ~coords:yvars f
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "uncovered free variable rejected" true
    (match Plan.cached ~coords:[| Var.of_string "y1" |] f with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Eviction under a tiny capacity                                      *)
(* ------------------------------------------------------------------ *)

let evicted_total () =
  (Array.fold_left Cqa_conc.Striped_tbl.add_stat Cqa_conc.Striped_tbl.zero_stat
     (Plan.cache_stats ()))
    .Cqa_conc.Striped_tbl.evicted

let test_eviction () =
  let cap0 = Plan.cache_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Plan.set_cache_capacity cap0;
      Plan.clear_cache ())
    (fun () ->
      Plan.clear_cache ();
      Plan.set_cache_capacity 4;
      let before = evicted_total () in
      let plans =
        List.init 100 (fun k ->
            let f = parse (Printf.sprintf "0 <= x /\\ x <= %d" (k + 1)) in
            (f, Plan.cached f))
      in
      check "cache stays within capacity" true (Plan.cache_length () <= 4);
      check "evictions happened and were counted" true
        (evicted_total () > before);
      (* evicted shapes recompile to plans with identical shape hashes *)
      List.iteri
        (fun i (f, p) ->
          if i mod 17 = 0 then
            check_int "recompile reproduces the shape"
              (Plan.shape_hash p)
              (Plan.shape_hash (Plan.cached f)))
        plans)

(* ------------------------------------------------------------------ *)
(* Warm-vs-cold agreement of the guarded entry points                  *)
(* ------------------------------------------------------------------ *)

let test_warm_cold_guarded () =
  Plan.clear_cache ();
  let f = parse sweep_src in
  let p = Plan.cached ~coords:yvars f in
  let cold = Exec.volume_guarded p db0 in
  let warm = Exec.volume_guarded (Plan.cached ~coords:yvars f) db0 in
  check "exact engine selected" true
    (cold.Volume_exact.engine = Volume_exact.Exact_engine);
  check "warm value = cold value" true
    (Q.equal cold.Volume_exact.value warm.Volume_exact.value);
  check "matches the unplanned exact volume" true
    (Q.equal cold.Volume_exact.value
       (Volume_exact.volume_clamped (Eval.eval_set db0 yvars f)));
  (* fallback path: the plan records the fallback verdict at compile time
     and the estimator agrees with the unplanned one for equal seeds *)
  let g = parse blowup_src in
  let gcoords = Array.of_list (Var.Set.elements (Ast.free_vars g)) in
  let gp = Plan.cached ~budget:1e6 ~coords:gcoords g in
  check "fallback decided at plan time" true
    (match Plan.decision gp with
    | Dispatch.Fallback_approx _ -> true
    | Dispatch.Run_exact -> false);
  let a = Exec.volume_guarded ~seed:7 gp db0 in
  let b =
    Exec.volume_guarded ~seed:7 (Plan.cached ~budget:1e6 ~coords:gcoords g) db0
  in
  let d, _ =
    Volume_exact.sampler_estimate ~eps:0.1 ~delta:0.1 ~seed:7 db0 gcoords g
  in
  check "sampling engine selected" true
    (match a.Volume_exact.engine with
    | Volume_exact.Approx_engine _ -> true
    | Volume_exact.Exact_engine -> false);
  check "warm fallback = cold fallback" true
    (Q.equal a.Volume_exact.value b.Volume_exact.value);
  check "matches the one-shot sampler" true (Q.equal a.Volume_exact.value d)

(* At several domains the retained sample must still be the one-shot
   estimator's, cold and warm; the pool is forced so the draw and the
   scoring really chunk. *)
let test_guarded_sampler_domains () =
  let f = parse sweep_src in
  Cqa_conc.Pool.set_mode Cqa_conc.Pool.Always;
  Fun.protect ~finally:(fun () -> Cqa_conc.Pool.set_mode Cqa_conc.Pool.Auto) @@ fun () ->
  List.iter
    (fun domains ->
      Plan.clear_cache ();
      let p = Plan.cached ~coords:yvars f in
      let oneshot, m =
        Volume_exact.sampler_estimate ~domains ~eps:0.1 ~delta:0.1 ~seed:11 db0 yvars f
      in
      List.iter
        (fun run ->
          let g = Exec.volume_guarded ~domains ~budget:0. ~seed:11 p db0 in
          check
            (Printf.sprintf "%s fallback = one-shot sampler at %d domains" run domains)
            true
            (Q.equal g.Volume_exact.value oneshot
            && g.Volume_exact.engine = Volume_exact.Approx_engine { sample_size = m }))
        [ "cold"; "warm" ])
    [ 2; 4 ]

let test_planner_hint () =
  Plan.clear_cache ();
  let f = parse sweep_src in
  let p = Cqa_analysis.Planner.compile ~db:db0 f in
  check "analyzer hint attached on the miss" true
    (Plan.hint p = Some Dispatch.Exact_semilinear);
  let g = parse blowup_src in
  let gp = Cqa_analysis.Planner.compile ~db:db0 ~budget:1e6 g in
  check "blowup shape still classified exact-semilinear" true
    (Plan.hint gp = Some Dispatch.Exact_semilinear);
  check "but guarded out by the budget" true
    (match Plan.decision gp with
    | Dispatch.Fallback_approx _ -> true
    | Dispatch.Run_exact -> false)

let () =
  Alcotest.run "cqa_plan"
    [ ( "cache",
        [ Alcotest.test_case "identity" `Quick test_cache_identity;
          Alcotest.test_case "hint_of once" `Quick test_hint_of_called_once;
          Alcotest.test_case "eviction" `Quick test_eviction ] );
      ( "exec",
        [ Alcotest.test_case "plan vs direct, dom 1/2/4" `Quick
            test_plan_vs_direct_domains;
          Alcotest.test_case "volume_of_query cached" `Quick
            test_volume_of_query_cached;
          Alcotest.test_case "parameterized" `Quick test_param_exec;
          Alcotest.test_case "out-of-range bindings, dom 1/2/4" `Quick
            test_param_out_of_range;
          Alcotest.test_case "slot validation" `Quick test_param_validation;
          Alcotest.test_case "guarded fallback = sampler, dom 2/4" `Quick
            test_guarded_sampler_domains;
          Alcotest.test_case "warm = cold (guarded)" `Quick
            test_warm_cold_guarded ] );
      ( "planner",
        [ Alcotest.test_case "analyzer in the loop" `Quick test_planner_hint ] )
    ]
