open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_core
open Cqa_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int

let x0 = (Semilinear.default_vars 1).(0)

let u_set =
  let iv a b =
    [ Linconstr.ge (Linexpr.var x0) (Linexpr.const a);
      Linconstr.le (Linexpr.var x0) (Linexpr.const b) ]
  in
  Semilinear.make [| x0 |] [ iv Q.zero Q.one; iv (q 2) (q 3) ]

let schema = Schema.of_list [ ("U", 1) ]
let db = Db.of_list schema [ ("U", Db.Semilin u_set) ]
let xx = Var.of_string "x"
let yy = Var.of_string "y"

let has_code code ds =
  List.exists (fun d -> d.Diagnostic.code = code) ds

let fof = Parser.formula_of_string
let tof = Parser.term_of_string

(* ------------------------------------------------------------------ *)
(* Diagnostic                                                          *)
(* ------------------------------------------------------------------ *)

let test_diagnostic () =
  let e = Diagnostic.error ~code:"c1" ~path:[ "a"; "b" ] "m%d" 1 in
  let w = Diagnostic.warning ~code:"c2" ~path:[] "m2" in
  let i = Diagnostic.info ~code:"c3" ~path:[ "z" ] "m3" in
  check "message formatted" true (e.Diagnostic.message = "m1");
  check "path rendered" true (Diagnostic.path_to_string e.Diagnostic.path = "/a/b");
  check "root path" true (Diagnostic.path_to_string [] = "/");
  (* sort: severity first *)
  (match Diagnostic.sort [ i; w; e ] with
  | [ a; b; c ] ->
      check "sorted" true
        (a.Diagnostic.code = "c1" && b.Diagnostic.code = "c2"
        && c.Diagnostic.code = "c3")
  | _ -> Alcotest.fail "three diagnostics");
  check_int "errors counted" 1 (Diagnostic.count Diagnostic.Error [ i; w; e ]);
  check "has_errors" true (Diagnostic.has_errors [ i; e ]);
  check "json escapes quotes" true
    (Cqa_telemetry.Tjson.quote {|a"b\c|} = {|"a\"b\\c"|});
  let j = Diagnostic.to_json e in
  check "json well formed" true
    (String.length j > 0 && j.[0] = '{' && j.[String.length j - 1] = '}')

(* ------------------------------------------------------------------ *)
(* Scope                                                               *)
(* ------------------------------------------------------------------ *)

let test_scope_report () =
  let f = fof "exists a . forall b . (a < b /\\ exists c . c < a)" in
  let r = Scope.report_formula f in
  check_int "rank" 3 r.Scope.quantifier_rank;
  check_int "count" 3 r.Scope.quantifier_count;
  check_int "no sums" 0 r.Scope.sum_count;
  let t = tof "SUM { w | 0 <= w | END(y . U(y)) } (x . x = w)" in
  let rt = Scope.report_term t in
  check_int "sum depth" 1 rt.Scope.sum_depth;
  check_int "sum binders" 3 rt.Scope.binder_count

let test_scope_diags () =
  let shadowed = fof "exists a . exists a . a < 1" in
  let ds = Scope.check_formula shadowed in
  check "shadowed binder" true (has_code "shadowed-binder" ds);
  check "outer unused" true (has_code "unused-binder" ds);
  (* tuple variable free in the END body: error (END is evaluated first) *)
  let leak =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(TVar xx =! TVar (Var.of_string "w"))
      ~w:[ Var.of_string "w" ]
      ~guard:Ast.True ~end_y:yy
      ~end_body:Ast.(TVar yy <=! TVar (Var.of_string "w"))
  in
  check "tuple var in END" true
    (has_code "tuple-var-in-end" (Scope.check_term leak));
  (* a tuple variable used in neither the guard nor gamma *)
  let unused = tof "SUM { w | 1 <= 2 | END(y . 0 <= y /\\ y <= 1) } (x . x = 3)" in
  check "unused tuple var" true (has_code "unused-binder" (Scope.check_term unused));
  (* clean query: no scope diagnostics *)
  check "clean" true
    (Scope.check_term (tof "SUM { w | U(w) | END(y . U(y)) } (x . x = w)") = [])

(* ------------------------------------------------------------------ *)
(* Fragment                                                            *)
(* ------------------------------------------------------------------ *)

let test_fragment () =
  (* spelled FO+POLY, normalizes to FO+LIN *)
  let f = fof "(x + 1) * (x + 1) - x * x <= 4 /\\ 0 <= x" in
  let c, ds = Fragment.classify_formula f in
  check "spelled poly" true (c.Fragment.syntactic = Fragment.Poly);
  check "normalized lin" true (c.Fragment.normalized = Fragment.Lin);
  check "hint exact" true (c.Fragment.hint = Dispatch.Exact_semilinear);
  check "info emitted" true (has_code "poly-spelled-linear" ds);
  (* genuinely nonlinear *)
  let g = fof "x * x <= 2" in
  let cg, dg = Fragment.classify_formula g in
  check "normalized poly" true (cg.Fragment.normalized = Fragment.Poly);
  check "hint pointwise" true (cg.Fragment.hint = Dispatch.Pointwise_poly);
  check "nonlinear atom info" true (has_code "nonlinear-atom" dg);
  (* closed, linear-reducible sum folds away *)
  let t = tof "SUM { w | U(w) | END(y . U(y)) } (x . x = w)" in
  let ct, dt = Fragment.classify_term ~db t in
  check "sum spelled" true (ct.Fragment.syntactic = Fragment.Sum);
  check "sum normalizes lin" true (ct.Fragment.normalized = Fragment.Lin);
  check_int "reducible" 1 ct.Fragment.reducible_sums;
  check "closed-sum info" true (has_code "closed-sum" dt);
  (* an open sum can never fold *)
  let open_t = tof "SUM { w | w <= param | END(y . U(y)) } (x . x = w)" in
  let co, d_open = Fragment.classify_term ~db open_t in
  check_int "open counted" 1 co.Fragment.open_sums;
  check "hint sum-eval" true (co.Fragment.hint = Dispatch.Sum_eval);
  check "open-sum info" true (has_code "open-sum" d_open);
  (* nonlinear gamma in its own binder blocks reduction *)
  let hard = tof "SUM { w | U(w) | END(y . U(y)) } (x . x * x = w)" in
  let ch, _ = Fragment.classify_term ~db hard in
  check_int "not reducible" 0 ch.Fragment.reducible_sums;
  check "stays sum" true (ch.Fragment.normalized = Fragment.Sum)

(* ------------------------------------------------------------------ *)
(* Range                                                               *)
(* ------------------------------------------------------------------ *)

let test_range_bounds () =
  let itv a b = Range.Itv (a, b) in
  let b f = fst (Range.bounds_of yy (fof f)) in
  check "two-sided" true (b "0 <= y /\\ y <= 1" = itv (Some Q.zero) (Some Q.one));
  check "one-sided" true (b "0 <= y" = itv (Some Q.zero) None);
  check "negation flips" true (b "~(y < 0)" = itv (Some Q.zero) None);
  check "contradiction" true (b "y < 0 /\\ 1 < y" = Range.Empty);
  check "disjunction joins" true
    (b "(0 <= y /\\ y <= 1) \\/ (2 <= y /\\ y <= 3)"
    = itv (Some Q.zero) (Some (q 3)));
  check "coefficient scaling" true (b "2 * y <= 6" = itv None (Some (q 3)));
  (* relation atoms bound through the database's bounding box *)
  let with_db, opaque = Range.bounds_of ~db yy (fof "U(y)") in
  check "relation bounded" true (with_db = itv (Some Q.zero) (Some (q 3)));
  check "not opaque with db" false opaque;
  let no_db, opaque' = Range.bounds_of yy (fof "U(y)") in
  check "opaque without db" true (no_db = Range.Itv (None, None) && opaque');
  check "truth fold" true (Range.truth (fof "1 < 2 /\\ ~(3 < 2)") = Some true)

(* Edge cases the certified rewriter leans on: enclosures stay outward
   (unbounded sides survive meets, joins never split), only a provable gap
   is Empty, and the verdicts are stable under rewriting. *)
let test_range_edges () =
  let itv a b = Range.Itv (a, b) in
  let b f = fst (Range.bounds_of yy (fof f)) in
  let q13 = Q.of_ints 1 3 and q17 = Q.of_ints 1 7 in
  (* meets with an unbounded side keep the exact rational endpoints and
     leave the unbounded side unbounded *)
  check "two one-sided meet" true
    (b "y <= 1/3 /\\ 1/7 <= y" = itv (Some q17) (Some q13));
  check "same-side meet tightens" true
    (b "y <= 1/3 /\\ y <= 1/2" = itv None (Some q13));
  check "unbounded side survives" true
    (b "1/7 <= y /\\ 1/3 <= y" = itv (Some q13) None);
  (* a join across a gap widens outward to one enclosure, never a union *)
  check "join of opposite rays is full" true (b "y <= 1/3 \\/ 2 <= y" = itv None None);
  (* bounds are closed over-approximations: a strict contradiction meeting
     at a single point is a point enclosure, not Empty — so Empty is always
     a sound unsat certificate for the rewriter *)
  check "point meet stays sound" true
    (b "y < 1 /\\ 1 <= y" = itv (Some Q.one) (Some Q.one));
  check "gap meet is empty" true (b "y < 1 /\\ 2 <= y" = Range.Empty);
  (* verdict stability: constant-folding verdicts agree with the rewriter *)
  let dead = fof "x < 1 /\\ 1 < 0" in
  check "dead verdict" true (Range.truth dead = Some false);
  let dead' = Rewrite.formula dead in
  check "dead verdict stable" true
    (Plan.equal_formula dead' Ast.False && Range.truth dead' = Some false);
  (* the empty-sum diagnostic and the rw-empty-sum rule agree *)
  let empty_guard =
    tof "SUM { w | w < 0 /\\ 1 < w | END(y . U(y)) } (x . x = w)"
  in
  check "empty-sum diagnosed" true
    (has_code "empty-sum" (Range.check_term ~db empty_guard));
  check "empty-sum rewritten away" true
    (Plan.equal_formula
       (Rewrite.formula ~db (Ast.Cmp (Ast.Ceq, empty_guard, Ast.Const Q.zero)))
       Ast.True);
  (* canonical atoms leave the enclosure unchanged *)
  List.iter
    (fun s ->
      let f = fof s in
      check ("bounds stable: " ^ s) true
        (fst (Range.bounds_of yy f)
        = fst (Range.bounds_of yy (Rewrite.formula f))))
    [
      "0 <= y /\\ y <= 1"; "~(y < 0)"; "2 * y <= 6";
      "(0 <= y /\\ y <= 1) \\/ (2 <= y /\\ y <= 3)";
    ]

let test_range_diags () =
  (* unbounded END: hard warning when the atoms are pure arithmetic *)
  let t = tof "SUM { w | U(w) | END(y . 0 <= y) } (x . x = w)" in
  check "unbounded flagged" true
    (has_code "unbounded-guard" (Range.check_term ~db t));
  (* bounded through the db: clean *)
  let ok = tof "SUM { w | U(w) | END(y . U(y)) } (x . x = w)" in
  check "bounded clean" false
    (has_code "unbounded-guard" (Range.check_term ~db ok));
  (* without the db the same query is only possibly-unbounded (info) *)
  let ds = Range.check_term ok in
  check "possibly unbounded info" true (has_code "possibly-unbounded" ds);
  check "no hard warning" false (has_code "unbounded-guard" ds);
  (* unsatisfiable END *)
  let empty_end = tof "SUM { w | U(w) | END(y . y < 0 /\\ 1 < y) } (x . x = w)" in
  check "empty END" true (has_code "empty-end" (Range.check_term ~db empty_end));
  (* trivially false guard *)
  let empty_guard = tof "SUM { w | 1 < 0 | END(y . U(y)) } (x . x = w)" in
  check "empty sum" true
    (has_code "empty-sum" (Range.check_term ~db empty_guard));
  (* interval-empty guard (not a constant fold) *)
  let empty_guard2 =
    tof "SUM { w | w < 0 /\\ 1 < w | END(y . U(y)) } (x . x = w)"
  in
  check "interval empty sum" true
    (has_code "empty-sum" (Range.check_term ~db empty_guard2));
  (* dead branches and trivial atoms *)
  let dead = fof "x < 1 /\\ 1 < 0" in
  let ds = Range.check_formula dead in
  check "trivial atom" true (has_code "trivial-atom" ds);
  check "dead branch" true (has_code "dead-branch" ds);
  check "clean formula" true (Range.check_formula ~db (fof "U(x) /\\ x < 1") = [])

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost () =
  let small = Cost.estimate_formula (fof "x < 1 /\\ 0 < x") in
  check "small stays small" true (small.Cost.projected_qe_atoms < 10.);
  check "no blowup warning" false (has_code "qe-blowup" (Cost.check small));
  let blowup =
    Cost.estimate_formula
      (fof
         "exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . (u < \
          x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < v /\\ \
          0 <= x1 /\\ x5 <= 1)")
  in
  check "blowup projected" true (blowup.Cost.projected_qe_atoms > 1e6);
  check "blowup warned" true (has_code "qe-blowup" (Cost.check blowup));
  check "threshold respected" false
    (has_code "qe-blowup" (Cost.check ~threshold:1e300 blowup));
  (* summation grid *)
  let t = Cost.estimate_term ~endpoints:10 (tof "SUM { a, b, c | 0 <= a /\\ 0 <= b /\\ 0 <= c | END(y . U(y)) } (x . x = a)") in
  check_int "tuple width" 3 t.Cost.tuple_width;
  check "grid size" true (t.Cost.projected_sum_points = 1000.);
  check "km present iff free vars" true
    (t.Cost.km = None && blowup.Cost.km <> None)

(* ------------------------------------------------------------------ *)
(* Analyzer: seeded bad queries get distinct diagnostics               *)
(* ------------------------------------------------------------------ *)

let test_analyzer_seeded () =
  let codes r =
    List.map (fun d -> d.Diagnostic.code) r.Analyzer.diagnostics
  in
  (* 1. nondeterministic gamma: error *)
  let nondet =
    Analyzer.analyze_term ~db
      (tof "SUM { w | U(w) | END(y . U(y)) } (x . x = w \\/ x = w + 1)")
  in
  check "nondet is error" true (Analyzer.error_count nondet > 0);
  check "nondet code" true (List.mem "nondeterministic-gamma" (codes nondet));
  (* 2. unbounded END: warning, distinct code *)
  let unb =
    Analyzer.analyze_term ~db
      (tof "SUM { w | U(w) | END(y . 0 <= y) } (x . x = w)")
  in
  check "unbounded no errors" true (Analyzer.error_count unb = 0);
  check "unbounded code" true (List.mem "unbounded-guard" (codes unb));
  check "unbounded distinct" false
    (List.mem "nondeterministic-gamma" (codes unb));
  (* 3. Section 3 blowup: warning, distinct code *)
  let blow =
    Analyzer.analyze_formula ~db
      (fof
         "exists x1 . exists x2 . exists x3 . exists x4 . exists x5 . (u < \
          x1 /\\ x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x5 /\\ x5 < v /\\ \
          0 <= x1 /\\ x5 <= 1)")
  in
  check "blowup code" true (List.mem "qe-blowup" (codes blow));
  check "blowup distinct" false
    (List.mem "unbounded-guard" (codes blow)
    || List.mem "nondeterministic-gamma" (codes blow));
  (* exit-code policy *)
  check "nondet not ok" false (Analyzer.ok nondet);
  check "unbounded ok unless denied" true (Analyzer.ok unb);
  check "unbounded denied" false (Analyzer.ok ~deny_warnings:true unb);
  (* renderers don't raise and agree on counts *)
  let s = Format.asprintf "%a" (Analyzer.pp_result ~show_info:true) nondet in
  check "human output" true (String.length s > 0);
  let j = Analyzer.result_to_json nondet in
  check "json output" true (String.length j > 0 && j.[0] = '{')

(* ------------------------------------------------------------------ *)
(* Dispatch hint consumed by the exact engine, skipping the probe      *)
(* ------------------------------------------------------------------ *)

let test_dispatch_hint_no_probe () =
  (* FO+POLY-spelled but provably semi-linear: (x+1)^2 - x^2 <= 4 is 2x+1 <= 4 *)
  let f = fof "(x + 1) * (x + 1) - x * x <= 4 /\\ 0 <= x" in
  let r = Analyzer.analyze_formula f in
  check "statically exact" true (r.Analyzer.hint = Dispatch.Exact_semilinear);
  let db0 = Db.empty Schema.empty in
  let before = Eval.runtime_probes () in
  let v = Volume_exact.volume_of_query ~hint:r.Analyzer.hint db0 [| xx |] f in
  check "volume right" true (Q.equal v (Q.of_ints 3 2));
  check_int "hinted path skips the probe" before (Eval.runtime_probes ());
  (* without the hint the runtime probe runs *)
  let v' = Volume_exact.volume_of_query db0 [| xx |] f in
  check "same volume" true (Q.equal v v');
  check_int "probe counted" (before + 1) (Eval.runtime_probes ());
  (* a non-exact hint refuses the exact engine *)
  check "pointwise refused" true
    (match
       Volume_exact.volume_of_query ~hint:Dispatch.Pointwise_poly db0 [| xx |] f
     with
    | exception Volume_exact.Not_semilinear _ -> true
    | _ -> false)

let () =
  Alcotest.run "cqa_analysis"
    [
      ("diagnostic", [ Alcotest.test_case "basics" `Quick test_diagnostic ]);
      ( "scope",
        [ Alcotest.test_case "report" `Quick test_scope_report;
          Alcotest.test_case "diagnostics" `Quick test_scope_diags ] );
      ("fragment", [ Alcotest.test_case "classify" `Quick test_fragment ]);
      ( "range",
        [ Alcotest.test_case "bounds" `Quick test_range_bounds;
          Alcotest.test_case "edge cases" `Quick test_range_edges;
          Alcotest.test_case "diagnostics" `Quick test_range_diags ] );
      ("cost", [ Alcotest.test_case "projection" `Quick test_cost ]);
      ( "analyzer",
        [ Alcotest.test_case "seeded queries" `Quick test_analyzer_seeded;
          Alcotest.test_case "dispatch hint" `Quick test_dispatch_hint_no_probe ] );
    ]
