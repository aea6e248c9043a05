(* Telemetry layer: probe mechanics, snapshot/diff, the determinism
   contract under domain parallelism, the Tjson reader, and the
   cost-guarded exact -> approximate dispatch. *)

open Cqa_arith
open Cqa_logic
open Cqa_vc
open Cqa_core
module T = Cqa_telemetry.Telemetry
module J = Cqa_telemetry.Tjson
module Pool = Cqa_conc.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Telemetry state is process-global; every test starts from a clean,
   enabled slate and leaves the switch off. *)
let with_telemetry f =
  T.enable ();
  T.reset ();
  Fun.protect ~finally:T.disable f

let counter_value snap name =
  match List.assoc_opt name snap.T.counters with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* Core probe mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  with_telemetry @@ fun () ->
  let c = T.counter "test.counter" in
  T.incr c;
  T.add c 4;
  T.set_max c 3 (* below: no-op *);
  let s = T.snapshot () in
  check_int "incr + add" 5 (counter_value s "test.counter");
  T.set_max c 100;
  check_int "set_max raises" 100 (counter_value (T.snapshot ()) "test.counter");
  T.reset ();
  check_int "reset zeroes" 0 (counter_value (T.snapshot ()) "test.counter");
  check "same name, same counter" true (c == T.counter "test.counter")

let test_disabled_probes_are_inert () =
  T.disable ();
  T.reset ();
  let c = T.counter "test.disabled" in
  T.incr c;
  T.add c 10;
  let tm = T.timer "test.disabled_timer" in
  T.record_ns tm 5.0;
  check_int "counter untouched while disabled" 0
    (counter_value (T.snapshot ()) "test.disabled");
  let st = List.assoc "test.disabled_timer" (T.snapshot ()).T.timers in
  check_int "timer untouched while disabled" 0 st.T.count

let test_timers_and_spans () =
  with_telemetry @@ fun () ->
  let tm = T.timer "test.timer" in
  T.record_ns tm 10.0;
  T.record_ns tm 30.0;
  let v = T.time tm (fun () -> 42) in
  check_int "time returns the result" 42 v;
  let st = List.assoc "test.timer" (T.snapshot ()).T.timers in
  check_int "three samples" 3 st.T.count;
  check "total accumulates" true (st.T.total_ns >= 40.0);
  check "min <= max" true (st.T.min_ns <= st.T.max_ns);
  let r = T.with_span "unit" (fun () -> T.with_span "unit" (fun () -> 7)) in
  check_int "span returns the result" 7 r;
  let s = T.snapshot () in
  check_int "nested span depth high-water" 2
    (counter_value s "span.depth:unit");
  let sp = List.assoc "span:unit" s.T.timers in
  check_int "two span samples" 2 sp.T.count

let test_events_and_diff () =
  with_telemetry @@ fun () ->
  let c = T.counter "test.diffed" in
  T.incr c;
  T.event "e1" "first";
  let before = T.snapshot () in
  T.add c 2;
  T.event "e2" "second";
  let d = T.diff ~before ~after:(T.snapshot ()) in
  check_int "counter delta" 2 (counter_value d "test.diffed");
  check "only the new event" true (d.T.events = [ ("e2", "second") ])

(* ------------------------------------------------------------------ *)
(* Determinism contract under domain parallelism                       *)
(* ------------------------------------------------------------------ *)

let fixed_semilinear dim seed =
  let prng = Prng.create seed in
  Cqa_workload.Generators.semilinear prng ~dim ~disjuncts:2

(* Scheduling-dependent names the contract explicitly exempts: memo
   hit/miss splits (two domains can both miss a cold key), work performed
   inside memoized computations, which concurrent cold misses duplicate --
   the fm.* counters under the QE/satisfiability memos and the simplex.*
   LP-work counters under the memoized bounding boxes -- plus, since the
   persistent pool, the pool.* scheduler counters (batches taken
   parallel/sequential, jobs stolen: functions of the cutoff and the steal
   schedule), the *.contention and *.evict shard counters of the striped
   memo tables, the plan.* counters (cache traffic, per-database
   execution state and wall-clock compile time: all functions of execution
   history), the serve.* counters (pure traffic tallies of whatever
   clients sent), and the arena.* counters (scratch-arena reuse/grow is
   per-domain: how many workers first-touch an arena depends on the
   steal schedule). *)
let deterministic_counters snap =
  List.filter
    (fun (name, _) ->
      let has_suffix suf =
        let n = String.length name and k = String.length suf in
        n >= k && String.sub name (n - k) k = suf
      in
      let has_prefix pre =
        let n = String.length name and k = String.length pre in
        n >= k && String.sub name 0 k = pre
      in
      not
        (has_suffix ".hit" || has_suffix ".miss" || has_prefix "simplex."
        || has_prefix "fm." || has_prefix "pool." || has_prefix "plan."
        || has_prefix "serve." || has_prefix "arena."
        || has_suffix ".contention" || has_suffix ".evict"))
    snap.T.counters

let counters_for_run job =
  with_telemetry @@ fun () ->
  let before = T.snapshot () in
  job ();
  deterministic_counters (T.diff ~before ~after:(T.snapshot ()))

(* Force the pool path (mode Always) so the multi-domain runs really
   execute on pool workers even on single-core hardware where the adaptive
   cutoff would run them inline. *)
let test_counter_determinism_across_domains () =
  let s3 = fixed_semilinear 3 102 in
  let expected = ref [] in
  let cold () =
    Cqa_linear.Fourier_motzkin.clear_qe_cache ();
    Cqa_linear.Semilinear.clear_bbox_cache ()
  in
  Pool.set_mode Pool.Always;
  Fun.protect ~finally:(fun () -> Pool.set_mode Pool.Auto) @@ fun () ->
  List.iteri
    (fun i domains ->
      cold ();
      let sweep =
        counters_for_run (fun () ->
            ignore (Volume_exact.volume_sweep ~domains s3))
      in
      cold ();
      let ie =
        counters_for_run (fun () ->
            ignore (Volume_exact.volume_incl_excl ~domains s3))
      in
      if i = 0 then expected := [ sweep; ie ]
      else begin
        check
          (Printf.sprintf "sweep counters identical at %d domains" domains)
          true
          (List.nth !expected 0 = sweep);
        check
          (Printf.sprintf "incl-excl counters identical at %d domains" domains)
          true
          (List.nth !expected 1 = ie)
      end)
    [ 1; 2; 4 ];
  (* sanity: the runs actually moved the engine counters *)
  check "sweep recorded work" true
    (List.exists
       (fun (n, v) -> n = "volume.sweep.sections" && v > 0)
       (List.nth !expected 0));
  (* the sampler: a Halton sample is the same at every domain count, so
     every vc.* counter is; a random sample's points (hence its
     acceptances) depend on the domain count, its sizes do not *)
  let quarter p = Q.lt p.(0) Q.half && Q.lt p.(1) Q.half in
  let is_vc n = String.length n > 3 && String.sub n 0 3 = "vc." in
  let sized n =
    List.mem n [ "vc.samples.drawn"; "vc.membership_tests"; "vc.estimates" ]
  in
  let estimators =
    [ ( "halton", is_vc,
        fun domains -> ignore (Approx_volume.estimate_halton ~domains ~dim:2 ~n:300 quarter) );
      ( "random", sized,
        fun domains ->
          ignore
            (Approx_volume.estimate_random ~domains ~prng:(Prng.create 5) ~dim:2
               ~n:300 quarter) );
      ( "family", sized,
        fun domains ->
          ignore
            (Approx_volume.estimate_family_random ~domains ~prng:(Prng.create 5)
               ~dim:2 ~n:300
               ~mem:(fun a p -> Q.lt p.(0) a)
               [ Q.half; Q.one ]) ) ]
  in
  List.iter
    (fun (name, keep, run) ->
      let at domains =
        List.filter (fun (n, _) -> keep n) (counters_for_run (fun () -> run domains))
      in
      let base = at 1 in
      check (name ^ " recorded estimates") true
        (List.exists (fun (n, v) -> n = "vc.estimates" && v > 0) base);
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "%s counters identical at %d domains" name domains)
            true (at domains = base))
        [ 2; 4 ])
    estimators

let test_memo_hit_miss_expectations () =
  let x = Var.of_string "x" and y = Var.of_string "y" and z = Var.of_string "z" in
  let lt a b = Formula.Atom (Cqa_linear.Linconstr.lt a b) in
  let f =
    Formula.forall_many [ x; y ]
      (Formula.implies
         (lt (Cqa_linear.Linexpr.var x) (Cqa_linear.Linexpr.var y))
         (Formula.Exists
            ( z,
              Formula.And
                ( lt (Cqa_linear.Linexpr.var x) (Cqa_linear.Linexpr.var z),
                  lt (Cqa_linear.Linexpr.var z) (Cqa_linear.Linexpr.var y) ) )))
  in
  with_telemetry @@ fun () ->
  Cqa_linear.Fourier_motzkin.clear_qe_cache ();
  let before = T.snapshot () in
  ignore (Cqa_linear.Fourier_motzkin.qe f);
  let cold = T.diff ~before ~after:(T.snapshot ()) in
  check "cold run misses the QE memo" true
    (counter_value cold "fm.qe_memo.miss" > 0);
  check_int "cold run cannot hit the QE memo" 0
    (counter_value cold "fm.qe_memo.hit");
  let before = T.snapshot () in
  ignore (Cqa_linear.Fourier_motzkin.qe f);
  let warm = T.diff ~before ~after:(T.snapshot ()) in
  check "warm run hits the QE memo" true
    (counter_value warm "fm.qe_memo.hit" > 0);
  check_int "warm run does no projection" 0
    (counter_value warm "fm.qe.projections")

(* ------------------------------------------------------------------ *)
(* Tjson and the JSON snapshot schema                                  *)
(* ------------------------------------------------------------------ *)

let test_tjson_parser () =
  check "null" true (J.parse_exn "null" = J.Null);
  check "number" true (J.parse_exn "-12.5e1" = J.Num (-125.));
  check "string escapes" true
    (J.parse_exn {|"a\nbA"|} = J.Str "a\nbA");
  check "nested" true
    (J.parse_exn {|{"a":[1,true,{"b":""}]}|}
    = J.Obj [ ("a", J.Arr [ J.Num 1.; J.Bool true; J.Obj [ ("b", J.Str "") ] ]) ]);
  check "trailing garbage rejected" true
    (match J.parse "{} x" with Error _ -> true | Ok _ -> false);
  check "bad input rejected" true
    (match J.parse "{" with Error _ -> true | Ok _ -> false);
  let doc = J.parse_exn {|{"k1": 1.5, "k2": 2}|} in
  check "keys in order" true (J.keys doc = [ "k1"; "k2" ]);
  check "member" true
    (match J.member "k1" doc with
    | Some v -> J.to_float v = Some 1.5
    | None -> false)

let test_snapshot_json_round_trip () =
  with_telemetry @@ fun () ->
  let c = T.counter "test.json_counter" in
  T.add c 7;
  let tm = T.timer "test.json_timer" in
  T.record_ns tm 12.0;
  T.event "test.event" {|detail with "quotes" and \ backslash|};
  let snap = T.snapshot () in
  let doc = J.parse_exn (T.to_json snap) in
  let counters = Option.get (J.member "counters" doc) in
  check "counter survives the round trip" true
    (match J.member "test.json_counter" counters with
    | Some v -> J.to_float v = Some 7.
    | None -> false);
  let timers = Option.get (J.member "timers" doc) in
  (match J.member "test.json_timer" timers with
  | Some t ->
      check "timer count" true
        (Option.bind (J.member "count" t) J.to_float = Some 1.);
      check "timer total" true
        (match Option.bind (J.member "total_ns" t) J.to_float with
        | Some ns -> ns >= 12.0
        | None -> false)
  | None -> Alcotest.fail "timer missing from JSON");
  match J.member "events" doc with
  | Some (J.Arr [ ev ]) ->
      check "event name" true
        (Option.bind (J.member "name" ev) J.to_string = Some "test.event");
      check "event detail round-trips escapes" true
        (Option.bind (J.member "detail" ev) J.to_string
        = Some {|detail with "quotes" and \ backslash|})
  | _ -> Alcotest.fail "expected exactly one event"

(* ------------------------------------------------------------------ *)
(* Cost-guarded dispatch                                               *)
(* ------------------------------------------------------------------ *)

let blowup_formula () =
  Parser.formula_of_string
    "exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . \
     (u < x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < v \
     /\\ 0 <= x1 /\\ x5 <= 1)"

let test_cost_profile_matches_cost_pass () =
  let f = blowup_formula () in
  let p = Dispatch.profile_formula f in
  let e = Cqa_analysis.Cost.estimate_formula f in
  check_int "atoms agree" e.Cqa_analysis.Cost.atoms p.Dispatch.atoms;
  check_int "quantifiers agree" e.Cqa_analysis.Cost.quantifiers
    p.Dispatch.quantifiers;
  check "projection agrees" true
    (e.Cqa_analysis.Cost.projected_qe_atoms = Dispatch.projected_qe_atoms p);
  check "projection is the Section 3 blowup" true
    (Dispatch.projected_qe_atoms p > 1e9);
  check "default budget is unguarded" true
    (Dispatch.decide p = Dispatch.Run_exact);
  check "small budget trips the guard" true
    (match Dispatch.decide ~budget:1e6 p with
    | Dispatch.Fallback_approx { projected; budget } ->
        projected > 1e9 && budget = 1e6
    | Dispatch.Run_exact -> false)

(* The guarded path is Planner.compile -> Exec.volume_guarded; the
   unplanned references it must match are the one-shot sampler and the
   exact clamped volume of the evaluated set. *)
let guarded_plan ?budget () =
  let f = blowup_formula () in
  let coords = Array.of_list (Var.Set.elements (Ast.free_vars f)) in
  let db = Db.empty Schema.empty in
  Plan.clear_cache ();
  (f, coords, db, Cqa_analysis.Planner.compile ~db ?budget ~coords f)

let test_guarded_fallback_fires () =
  let f, coords, db, p = guarded_plan ~budget:1e6 () in
  with_telemetry @@ fun () ->
  let before = T.snapshot () in
  let r = Exec.volume_guarded p db in
  let d = T.diff ~before ~after:(T.snapshot ()) in
  check "small budget selects the sampling engine" true
    (match r.Volume_exact.engine with
    | Volume_exact.Approx_engine { sample_size } -> sample_size > 0
    | Volume_exact.Exact_engine -> false);
  check_int "fallback counter fired" 1 (counter_value d "plan.exec.fallback");
  check_int "no exact decision" 0 (counter_value d "plan.exec.exact");
  check "fallback event recorded" true
    (List.exists (fun (name, _) -> name = "plan.fallback") d.T.events);
  check "estimate lands in [0, 1]" true
    (Q.sign r.Volume_exact.value >= 0 && Q.leq r.Volume_exact.value Q.one);
  check "bit-identical to the one-shot sampler" true
    (Q.equal r.Volume_exact.value
       (fst
          (Volume_exact.sampler_estimate ~eps:0.1 ~delta:0.1 ~seed:1 db coords
             f)));
  (* eps = delta = 0.1 defaults: the exact VOL_I is 1/2, so the Blumer-sized
     estimate must land within eps with overwhelming margin for this seed *)
  check "estimate is eps-close to the exact 1/2" true
    (Q.to_float r.Volume_exact.value -. 0.5 < 0.1
    && 0.5 -. Q.to_float r.Volume_exact.value < 0.1)

let test_guarded_default_budget_is_exact () =
  let f, coords, db, p = guarded_plan () in
  with_telemetry @@ fun () ->
  let before = T.snapshot () in
  let r = Exec.volume_guarded p db in
  let d = T.diff ~before ~after:(T.snapshot ()) in
  check "default budget keeps the exact engine" true
    (r.Volume_exact.engine = Volume_exact.Exact_engine);
  check_int "no fallback" 0 (counter_value d "plan.exec.fallback");
  check_int "exact-decision counter" 1 (counter_value d "plan.exec.exact");
  check "no fallback event" false
    (List.exists (fun (name, _) -> name = "plan.fallback") d.T.events);
  check "exact VOL_I is 1/2" true (r.Volume_exact.value = Q.of_ints 1 2);
  check "matches the unplanned exact volume" true
    (Q.equal r.Volume_exact.value
       (Volume_exact.volume_clamped (Eval.eval_set db coords f)))

let () =
  Alcotest.run "cqa_telemetry"
    [
      ( "probes",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "disabled probes are inert" `Quick
            test_disabled_probes_are_inert;
          Alcotest.test_case "timers and spans" `Quick test_timers_and_spans;
          Alcotest.test_case "events and diff" `Quick test_events_and_diff ] );
      ( "determinism",
        [ Alcotest.test_case "counters across domain counts" `Quick
            test_counter_determinism_across_domains;
          Alcotest.test_case "memo hit/miss expectations" `Quick
            test_memo_hit_miss_expectations ] );
      ( "json",
        [ Alcotest.test_case "tjson parser" `Quick test_tjson_parser;
          Alcotest.test_case "snapshot round trip" `Quick
            test_snapshot_json_round_trip ] );
      ( "guarded dispatch",
        [ Alcotest.test_case "profile matches cost pass" `Quick
            test_cost_profile_matches_cost_pass;
          Alcotest.test_case "fallback fires under budget" `Quick
            test_guarded_fallback_fires;
          Alcotest.test_case "default budget stays exact" `Quick
            test_guarded_default_budget_is_exact ] );
    ]
