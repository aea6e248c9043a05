open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int
let qq = Q.of_ints
let rng = Random.State.make [| 4242 |]
let dv2 = Semilinear.default_vars 2

let iv var a b =
  [ Linconstr.ge (Linexpr.var var) (Linexpr.const a);
    Linconstr.le (Linexpr.var var) (Linexpr.const b) ]

let x0 = (Semilinear.default_vars 1).(0)

let u_set =
  Semilinear.make [| x0 |] [ iv x0 Q.zero Q.one; iv x0 (q 2) (q 3) ]

let schema = Schema.of_list [ ("U", 1); ("P", 2) ]

let tri_conj =
  [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
    Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero;
    Linconstr.le
      (Linexpr.add (Linexpr.var dv2.(0)) (Linexpr.var dv2.(1)))
      (Linexpr.const (q 2)) ]

let db =
  Db.of_list schema
    [ ("U", Db.Semilin u_set);
      ("P", Db.Semilin (Semilinear.of_conjunction dv2 tri_conj)) ]

let w = Var.of_string "w"
let xx = Var.of_string "x"
let yy = Var.of_string "y"

(* ------------------------------------------------------------------ *)
(* Ast                                                                 *)
(* ------------------------------------------------------------------ *)

let sum_endpoints guard =
  Ast.sum ~gamma_var:xx
    ~gamma:Ast.(TVar xx =! TVar w)
    ~w:[ w ] ~guard ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))

let test_ast_free_vars () =
  let t = sum_endpoints Ast.(TVar w <=! TVar (Var.of_string "param")) in
  check "param free" true
    (Var.Set.mem (Var.of_string "param") (Ast.term_free_vars t));
  check "w bound" false (Var.Set.mem w (Ast.term_free_vars t));
  check "gamma var bound" false (Var.Set.mem xx (Ast.term_free_vars t));
  let f = Ast.Exists (xx, Ast.(TVar xx <! TVar yy)) in
  check "exists binds" true
    (Var.Set.equal (Ast.free_vars f) (Var.Set.singleton yy))

let test_ast_subst () =
  let f = Ast.(And (TVar xx <! TVar yy, Exists (xx, TVar xx <! int 3))) in
  let g = Ast.subst (Var.Map.singleton xx (q 1)) f in
  check "outer substituted, inner shadowed" true
    (match g with
    | Ast.And (Ast.Cmp (Ast.Clt, Ast.Const c, _), Ast.Exists (_, Ast.Cmp (Ast.Clt, Ast.TVar v, _))) ->
        Q.equal c Q.one && Var.equal v xx
    | _ -> false)

let test_ast_subst_sum () =
  let param = Var.of_string "param" in
  let t = sum_endpoints Ast.(TVar w <=! TVar param) in
  (* only the genuinely free variable is substituted *)
  let t2 = Ast.subst_term (Var.Map.singleton param (q 9)) t in
  check "param substituted" true (Var.Set.is_empty (Ast.term_free_vars t2));
  (* every sum binder shadows the environment in its own section *)
  check "tuple binder shadows" true
    (Ast.subst_term (Var.Map.singleton w (q 9)) t = t);
  check "gamma binder shadows" true
    (Ast.subst_term (Var.Map.singleton xx (q 9)) t = t);
  check "END binder shadows" true
    (Ast.subst_term (Var.Map.singleton yy (q 9)) t = t);
  (* end_y is bound in end_body only: the same name free in the guard is a
     different variable and is substituted there *)
  let leaky = sum_endpoints Ast.(TVar w <=! TVar yy) in
  check "end_y free in guard" true
    (Var.Set.mem yy (Ast.term_free_vars leaky));
  let closed = Ast.subst_term (Var.Map.singleton yy (q 2)) leaky in
  check "guard occurrence substituted" true
    (Var.Set.is_empty (Ast.term_free_vars closed));
  (match closed with
  | Ast.Sum s ->
      check "end_body untouched" true (s.Ast.end_body = Ast.Rel ("U", [ yy ]))
  | _ -> Alcotest.fail "still a sum")

let test_ast_conversions () =
  let p =
    Cqa_poly.Mpoly.add
      (Cqa_poly.Mpoly.mul (Cqa_poly.Mpoly.var xx) (Cqa_poly.Mpoly.var yy))
      (Cqa_poly.Mpoly.constant (qq 1 2))
  in
  (match Ast.to_mpoly (Ast.of_mpoly p) with
  | Some p' -> check "mpoly roundtrip" true (Cqa_poly.Mpoly.equal p p')
  | None -> Alcotest.fail "sum-free");
  check "sum has no mpoly" true (Ast.to_mpoly (sum_endpoints Ast.True) = None);
  check_int "sum depth" 1 (Ast.sum_depth (sum_endpoints Ast.True));
  check "relations" true (Ast.relations (Ast.Rel ("U", [ xx ])) = [ "U" ])

(* ------------------------------------------------------------------ *)
(* Db                                                                  *)
(* ------------------------------------------------------------------ *)

let test_db () =
  check "mem semilin" true (Db.mem_tuple db "U" [| Q.half |]);
  check "not mem" false (Db.mem_tuple db "U" [| qq 3 2 |]);
  check "is_linear" true (Db.is_linear db);
  let fin = Db.of_list schema [ ("U", Db.Finite [ [| q 1 |]; [| q 4 |] ]) ] in
  (match Db.as_semilinear fin "U" with
  | Some s ->
      check "finite as semilinear" true
        (Semilinear.mem s [| q 4 |] && not (Semilinear.mem s [| q 2 |]))
  | None -> Alcotest.fail "convertible");
  let alg =
    Db.of_list schema
      [ ("P", Db.Semialgebraic (Cqa_poly.Semialg.ball ~center:[| Q.zero; Q.zero |] ~radius:Q.one)) ]
  in
  check "alg not linear" false (Db.is_linear alg);
  check "as_semilinear none" true (Db.as_semilinear alg "P" = None);
  Alcotest.check_raises "unknown relation" Not_found (fun () ->
      ignore (Db.find db "missing"))

(* ------------------------------------------------------------------ *)
(* Eval                                                                *)
(* ------------------------------------------------------------------ *)

let test_eval_sum_endpoints () =
  check "sum endpoints" true
    (Q.equal (Eval.eval_term db Var.Map.empty (sum_endpoints Ast.True)) (q 6));
  check "guard filter" true
    (Q.equal
       (Eval.eval_term db Var.Map.empty (sum_endpoints Ast.(TVar w >=! int 2)))
       (q 5));
  (* nonlinear gamma over bound w *)
  let t =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(TVar xx =! (TVar w *! TVar w))
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "squares" true (Q.equal (Eval.eval_term db Var.Map.empty t) (q 14))

let test_eval_holds_quantifiers () =
  let z = Var.of_string "z" in
  check "exists sat" true
    (Eval.holds db Var.Map.empty
       (Ast.Exists (z, Ast.(And (Rel ("U", [ z ]), TVar z >! int 2)))));
  check "exists unsat" false
    (Eval.holds db Var.Map.empty
       (Ast.Exists (z, Ast.(And (Rel ("U", [ z ]), TVar z >! int 3)))));
  check "forall" true
    (Eval.holds db Var.Map.empty
       (Ast.Forall (z, Ast.(implies (Rel ("U", [ z ])) (TVar z <=! int 3)))))

let test_eval_set_closure () =
  let a = Var.of_string "a" and b = Var.of_string "b" in
  let s =
    Eval.eval_set db [| a; b |]
      Ast.(conj [ Rel ("U", [ a ]); Rel ("U", [ b ]); TVar a <! TVar b ])
  in
  check "pair in" true (Semilinear.mem s [| Q.half; q 2 |]);
  check "pair out" false (Semilinear.mem s [| q 2; Q.half |])

let test_eval_section () =
  let env = Var.Map.singleton xx Q.half in
  let c =
    Eval.section db env yy Ast.(And (Rel ("U", [ yy ]), TVar yy >! TVar xx))
  in
  check "section endpoints" true (Cell1.endpoints c = [ Q.half; q 1; q 2; q 3 ])

let test_eval_gamma_partial () =
  (* gamma undefined on some tuples: those contribute nothing *)
  let t =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(conj [ TVar xx =! TVar w; TVar w >=! int 2 ])
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "partial gamma" true (Q.equal (Eval.eval_term db Var.Map.empty t) (q 5))

let test_eval_nondeterministic_gamma_rejected () =
  let t =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(conj [ TVar xx >=! TVar w; TVar xx <=! (TVar w +! int 1) ])
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "runtime nondeterminism" true
    (try
       ignore (Eval.eval_term db Var.Map.empty t);
       false
     with Invalid_argument _ -> true)

let test_eval_unsupported () =
  (* summation with an unbound parameter cannot be folded into an atom *)
  let t = sum_endpoints Ast.(TVar w <=! TVar (Var.of_string "param")) in
  let f = Ast.(Cmp (Ast.Clt, t, Ast.int 100)) in
  check "open sum unsupported" true
    (try
       ignore (Eval.eval_set db [| Var.of_string "param" |] f);
       false
     with Eval.Unsupported _ -> true)

let test_eval_section_alg () =
  let alg_db =
    Db.of_list schema
      [ ("P", Db.Semialgebraic (Cqa_poly.Semialg.ball ~center:[| Q.zero; Q.zero |] ~radius:(q 2))) ]
  in
  let s = Eval.section_alg alg_db (Var.Map.singleton xx Q.zero) yy (Ast.Rel ("P", [ xx; yy ])) in
  match Cqa_poly.Semialg.Section.measure_approx ~eps:(qq 1 1000) s with
  | Some m -> check "disk chord" true (abs_float (Q.to_float m -. 4.0) < 0.002)
  | None -> Alcotest.fail "finite"

(* ------------------------------------------------------------------ *)
(* Deterministic                                                       *)
(* ------------------------------------------------------------------ *)

let test_deterministic () =
  let det = Ast.(TVar xx =! ((TVar w *! int 2) +! int 1)) in
  check "linear det" true
    (Deterministic.check db ~gamma_var:xx ~w:[ w ] det = Deterministic.Deterministic);
  let nondet = Ast.(conj [ TVar xx >=! TVar w; TVar xx <=! (TVar w +! int 1) ]) in
  (match Deterministic.check db ~gamma_var:xx ~w:[ w ] nondet with
  | Deterministic.Not_deterministic _ -> ()
  | _ -> Alcotest.fail "expected nondeterministic");
  (* nonlinear explicit graph is recognized syntactically *)
  let explicit = Ast.(TVar xx =! (TVar w *! TVar w)) in
  check "explicit graph" true
    (Deterministic.check db ~gamma_var:xx ~w:[ w ] explicit = Deterministic.Deterministic);
  (* nonlinear non-graph: unknown *)
  let unknown = Ast.(Cmp (Ast.Cle, Mul (TVar xx, TVar xx), TVar w)) in
  check "unknown" true
    (Deterministic.check db ~gamma_var:xx ~w:[ w ] unknown = Deterministic.Unknown)

let test_deterministic_spellings () =
  let t = Ast.((TVar w *! TVar w) +! int 1) in
  (* t = x: the flipped spelling of an explicit graph *)
  check "flipped graph" true
    (Deterministic.is_explicit_graph ~gamma_var:xx Ast.(t =! TVar xx));
  (* an even number of negations preserves the shape *)
  check "double negation" true
    (Deterministic.is_explicit_graph ~gamma_var:xx
       (Ast.Not (Ast.Not Ast.(TVar xx =! t))));
  check "single negation is not a graph" false
    (Deterministic.is_explicit_graph ~gamma_var:xx
       (Ast.Not Ast.(TVar xx =! t)));
  (* the parser's ~(x <> t) desugars to Not (Or (x < t, t < x)) *)
  let ne = Parser.formula_of_string "~(x <> w * w + 1)" in
  check "negated disequality" true
    (Deterministic.is_explicit_graph ~gamma_var:xx ne);
  (* x must not occur in t *)
  check "self-referential is not a graph" false
    (Deterministic.is_explicit_graph ~gamma_var:xx
       Ast.(TVar xx =! (TVar xx +! int 1)));
  check "spelling accepted by check" true
    (Deterministic.check db ~gamma_var:xx ~w:[ w ] ne
    = Deterministic.Deterministic);
  (* pp_verdict prints the two-output witness *)
  let nondet =
    Ast.(conj [ TVar xx >=! TVar w; TVar xx <=! (TVar w +! int 1) ])
  in
  let v = Deterministic.check db ~gamma_var:xx ~w:[ w ] nondet in
  let s = Format.asprintf "%a" Deterministic.pp_verdict v in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "witness printed" true
    ((match v with Deterministic.Not_deterministic _ -> true | _ -> false)
    && contains s "not deterministic")

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let fin_db =
  Db.of_list schema
    [ ("U", Db.Finite [ [| q 1 |]; [| q 2 |]; [| q 6 |] ]) ]

let test_aggregates () =
  let a = Var.of_string "a" in
  let query = Ast.Rel ("U", [ a ]) in
  check "count" true (Aggregates.count fin_db [| a |] query = Some 3);
  check "sum" true (Aggregates.sum_coord fin_db a query = Some (q 9));
  check "avg" true (Aggregates.avg_coord fin_db a query = Some (q 3));
  check "min" true (Aggregates.min_coord fin_db a query = Some (q 1));
  check "max" true (Aggregates.max_coord fin_db a query = Some (q 6));
  (* filtered aggregation *)
  let filtered = Ast.(And (query, TVar a >! int 1)) in
  check "filtered avg" true (Aggregates.avg_coord fin_db a filtered = Some (q 4));
  (* infinite output *)
  check "infinite none" true (Aggregates.count db [| a |] (Ast.Rel ("U", [ a ])) = None);
  (* empty output *)
  check "empty avg none" true
    (Aggregates.avg_coord fin_db a Ast.(And (query, TVar a >! int 100)) = None);
  check "empty count zero" true
    (Aggregates.count fin_db [| a |] Ast.(And (query, TVar a >! int 100)) = Some 0)

let test_aggregates_gamma () =
  let a = Var.of_string "a" in
  let query = Ast.Rel ("U", [ a ]) in
  (* chi: x = 2a *)
  let vg = Var.of_string "vg" in
  check "sum gamma" true
    (Aggregates.sum_gamma fin_db [| a |] query ~gamma_var:vg
       ~gamma:Ast.(TVar vg =! (TVar a *! int 2))
    = Some (q 18));
  check "avg gamma" true
    (Aggregates.avg_gamma fin_db [| a |] query ~gamma_var:vg
       ~gamma:Ast.(TVar vg =! (TVar a *! TVar a))
    = Some (Q.div (q 41) (q 3)))

(* ------------------------------------------------------------------ *)
(* Volume (exact, approx, trivial, mu, variable independence)          *)
(* ------------------------------------------------------------------ *)

let rand_union () =
  let conj () =
    let atoms =
      List.concat_map
        (fun v ->
          let a = qq (Random.State.int rng 9 - 4) 2 in
          let wdt = qq (1 + Random.State.int rng 6) 2 in
          iv v a (Q.add a wdt))
        (Array.to_list dv2)
    in
    atoms
    @ List.init (Random.State.int rng 2) (fun _ ->
          Linconstr.make
            (Linexpr.of_list
               (q (Random.State.int rng 7 - 3))
               [ (q (Random.State.int rng 5 - 2), dv2.(0));
                 (q (Random.State.int rng 5 - 2), dv2.(1)) ])
            Linconstr.Le)
  in
  Semilinear.make dv2 (List.init (1 + Random.State.int rng 3) (fun _ -> conj ()))

let test_volume_known () =
  let tri = Semilinear.of_conjunction dv2 tri_conj in
  check "triangle 2" true (Q.equal (Volume_exact.volume tri) (q 2));
  check "clamped" true (Q.equal (Volume_exact.volume_clamped tri) Q.one);
  check "empty" true (Q.is_zero (Volume_exact.volume (Semilinear.empty 2)));
  check "unbounded raises" true
    (try
       ignore (Volume_exact.volume (Semilinear.full 2));
       false
     with Volume_exact.Unbounded -> true)

let test_volume_cross_check () =
  for _ = 1 to 30 do
    let s = rand_union () in
    check "sweep = incl-excl" true
      (Q.equal (Volume_exact.volume_sweep s) (Volume_exact.volume_incl_excl s))
  done

let test_volume_additivity () =
  for _ = 1 to 20 do
    let a = rand_union () and b = rand_union () in
    let vu = Volume_exact.volume (Semilinear.union a b) in
    let vi = Volume_exact.volume (Semilinear.inter a b) in
    check "inclusion-exclusion identity" true
      (Q.equal (Q.add vu vi)
         (Q.add (Volume_exact.volume a) (Volume_exact.volume b)))
  done

let test_volume_monotone () =
  for _ = 1 to 20 do
    let a = rand_union () and b = rand_union () in
    check "monotone" true
      (Q.leq (Volume_exact.volume (Semilinear.inter a b)) (Volume_exact.volume a))
  done

let test_volume_approx () =
  let prng = Cqa_vc.Prng.create 5 in
  let disk = Cqa_poly.Semialg.ball ~center:[| Q.half; Q.half |] ~radius:(qq 2 5) in
  let mem = Cqa_poly.Semialg.mem disk in
  let est = Cqa_vc.Approx_volume.estimate_random ~prng ~dim:2 ~n:4000 mem in
  let truth = Float.pi *. 0.16 in
  check "disk estimate" true (abs_float (Q.to_float est -. truth) < 0.03);
  let sample_size = Cqa_vc.Bounds.blumer_sample_size ~eps:0.05 ~delta:0.1 ~vc_dim:3 in
  let estimate = Cqa_vc.Approx_volume.estimate_random ~prng ~dim:2 ~n:sample_size mem in
  check "eps variant close" true (abs_float (Q.to_float estimate -. truth) < 0.05);
  check "sample size sane" true (sample_size > 100)

let test_volume_approx_query () =
  let prng = Cqa_vc.Prng.create 11 in
  (* VOL_I of the triangle = 1 (its unit-cube part is the half square plus
     complement... actually the triangle x+y<=2 covers the whole unit square) *)
  let est =
    Volume_approx.approx_query ~prng ~m:800 db ~yvars:dv2 (Ast.Rel ("P", dv2 |> Array.to_list))
  in
  check "triangle covers cube" true (Q.equal est Q.one);
  (* family version: sections P(x, .) for several x *)
  let fam =
    Volume_approx.approx_query_family ~prng ~m:2000 db ~xvars:[| dv2.(0) |]
      ~yvars:[| dv2.(1) |]
      (Ast.Rel ("P", [ dv2.(0); dv2.(1) ]))
      ~params:[ [| Q.zero |]; [| Q.one |]; [| qq 3 2 |] ]
  in
  List.iter
    (fun (a, est) ->
      let truth = min 1.0 (2.0 -. Q.to_float a.(0)) in
      check "family accuracy" true (abs_float (Q.to_float est -. truth) < 0.05))
    fam

(* The compiled oracle decides an atom from doubles only beyond its error
   bound: a sample point exactly on the atom's boundary takes the exact
   fallback (and gets Eval.holds's answer), a point off it does not. *)
let test_oracle_fallback () =
  let module T = Cqa_telemetry.Telemetry in
  let counter name = Option.value ~default:0 (List.assoc_opt name (T.snapshot ()).T.counters) in
  T.reset ();
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let half = 1 lsl 52 and quarter = 1 lsl 51 in
  let ks = [| half; half; quarter; half |] in
  let decide text =
    let f = Parser.formula_of_string text in
    let vs = [| Var.of_string "x"; Var.of_string "y" |] in
    let test = Volume_approx.test (Volume_approx.compile db vs f) ks in
    (test 0, test 1)
  in
  let cases =
    [ ("x + y <= 1", (true, true));
      ("x + y < 1", (false, true));
      ("x * y = 1/4", (true, false));
      ("3 * x = 3/2", (true, false));
      ("P(x, y) /\\ x + y >= 1", (true, false)) ]
  in
  List.iter
    (fun (text, want) ->
      let sure0 = counter "vc.filter.sure" and fb0 = counter "vc.filter.fallback" in
      check text true (decide text = want);
      if Cqa_linear.Flatrow.enabled () then begin
        check (text ^ ": the boundary point fell back") true (counter "vc.filter.fallback" > fb0);
        check (text ^ ": the other point was sure") true (counter "vc.filter.sure" > sure0)
      end
      else check (text ^ ": exact kernel, no filter decisions") true
          (counter "vc.filter.fallback" = fb0 && counter "vc.filter.sure" = sure0))
    cases

let test_volume_approx_domains () =
  (* the parallel sampler drives Eval.holds (and the QE memo behind it)
     from several domains at once: for a fixed seed and domain count the
     estimate must be reproducible, and the halton variant must not depend
     on the domain count at all *)
  let f = Ast.Rel ("P", dv2 |> Array.to_list) in
  let run domains =
    let prng = Cqa_vc.Prng.create 11 in
    Volume_approx.approx_query ~domains ~prng ~m:600 db ~yvars:dv2 f
  in
  check "seq covers cube" true (Q.equal (run 1) Q.one);
  let a = run 3 and b = run 3 in
  check "parallel deterministic" true (Q.equal a b);
  check "parallel covers cube" true (Q.equal a Q.one);
  let h d =
    Cqa_vc.Approx_volume.estimate_halton ~domains:d ~dim:2 ~n:400
      (Volume_approx.member db dv2 f)
  in
  check "halton domain-invariant" true (Q.equal (h 1) (h 4));
  let fam d =
    let prng = Cqa_vc.Prng.create 23 in
    Volume_approx.approx_query_family ~domains:d ~prng ~m:900 db
      ~xvars:[| dv2.(0) |] ~yvars:[| dv2.(1) |]
      (Ast.Rel ("P", [ dv2.(0); dv2.(1) ]))
      ~params:[ [| Q.zero |]; [| Q.one |]; [| qq 3 2 |] ]
  in
  let fa = fam 3 and fb = fam 3 in
  check "family parallel deterministic" true
    (List.for_all2 (fun (_, u) (_, v) -> Q.equal u v) fa fb);
  List.iter
    (fun (p, est) ->
      let truth = Stdlib.min 1.0 (2.0 -. Q.to_float p.(0)) in
      check "family parallel accuracy" true
        (abs_float (Q.to_float est -. truth) < 0.06))
    fa


let test_volume_kernel_ablation () =
  (* the float-filtered kernel must be byte-identical to the exact one:
     same rationals, same printed form, at every domain count.  Caches are
     cleared around each switch so both kernels genuinely run. *)
  let was = Flatrow.enabled () in
  let vol kernel s domains =
    Flatrow.set_kernel kernel;
    Fourier_motzkin.clear_qe_cache ();
    Semilinear.clear_bbox_cache ();
    Volume_exact.volume_sweep ~domains s
  in
  Fun.protect
    ~finally:(fun () ->
      Flatrow.set_kernel was;
      Fourier_motzkin.clear_qe_cache ())
    (fun () ->
      for _ = 1 to 10 do
        let s = rand_union () in
        let reference = vol false s 1 in
        List.iter
          (fun domains ->
            let filtered = vol true s domains in
            check "kernel ablation Q.equal" true (Q.equal reference filtered);
            Alcotest.(check string)
              "kernel ablation bytes" (Q.to_string reference)
              (Q.to_string filtered))
          [ 1; 2; 4 ]
      done)

let test_volume_domains () =
  (* the parallel exact-volume engine must be value-identical to the
     sequential one for every domain count *)
  for _ = 1 to 12 do
    let s = rand_union () in
    let v1 = Volume_exact.volume_sweep ~domains:1 s in
    List.iter
      (fun k ->
        check "sweep domains" true
          (Q.equal v1 (Volume_exact.volume_sweep ~domains:k s)))
      [ 2; 4 ];
    let w1 = Volume_exact.volume_incl_excl ~domains:1 s in
    List.iter
      (fun k ->
        check "incl-excl domains" true
          (Q.equal w1 (Volume_exact.volume_incl_excl ~domains:k s)))
      [ 2; 4 ];
    check "sweep = incl-excl (parallel)" true (Q.equal v1 w1);
    let c1 = Volume_exact.volume_clamped ~domains:1 s in
    check "clamped domains" true
      (Q.equal c1 (Volume_exact.volume_clamped ~domains:4 s))
  done;
  (* parametric sections too *)
  for _ = 1 to 6 do
    let s = rand_union () in
    let f1 = Volume_param.section_volume_function ~domains:1 s in
    let f4 = Volume_param.section_volume_function ~domains:4 s in
    check_int "same piece count" (List.length f1) (List.length f4);
    check "same integral" true
      (Q.equal (Volume_param.integrate f1) (Volume_param.integrate f4));
    List.iter2
      (fun p1 p4 ->
        check "same piece bounds" true
          (Q.equal p1.Volume_param.lo p4.Volume_param.lo
          && Q.equal p1.Volume_param.hi p4.Volume_param.hi))
      f1 f4
  done

let test_arrangement_vertices () =
  let tri = Semilinear.of_conjunction dv2 tri_conj in
  let verts = Volume_exact.arrangement_vertices tri in
  (* 3 hyperplanes in dimension 2, all pairs independent: 3 vertices *)
  check_int "triangle vertex count" 3 (List.length verts);
  let expect = [ (Q.zero, Q.zero); (Q.zero, q 2); (q 2, Q.zero) ] in
  List.iter
    (fun (a, b) ->
      check "vertex present" true
        (List.exists (fun v -> Q.equal v.(0) a && Q.equal v.(1) b) verts))
    expect;
  (* the advisory subset limit only warns: results are unchanged *)
  let dflt = Volume_exact.get_max_arrangement_subsets () in
  Volume_exact.set_max_arrangement_subsets 1;
  let verts' = Volume_exact.arrangement_vertices tri in
  Volume_exact.set_max_arrangement_subsets dflt;
  check_int "guarded run identical" (List.length verts) (List.length verts');
  List.iter2
    (fun v w -> check "guarded vertices equal" true (Qmat.vec_equal v w))
    verts verts'

let test_trivial_approx () =
  let tri = Semilinear.of_conjunction dv2 tri_conj in
  check "nontrivial 1/2" true (Q.equal (Trivial_approx.trivial_approx tri) Q.one);
  (* the triangle covers the whole unit cube: volume 1 detected *)
  let small = Semilinear.of_conjunction dv2 (iv dv2.(0) (q 5) (q 6) @ iv dv2.(1) Q.zero Q.one) in
  check "outside cube: 0" true (Q.is_zero (Trivial_approx.trivial_approx small));
  let half_box =
    Semilinear.of_conjunction dv2 (iv dv2.(0) Q.zero Q.half @ iv dv2.(1) Q.zero Q.one)
  in
  check "genuinely 1/2" true (Q.equal (Trivial_approx.trivial_approx half_box) Q.half);
  (* always within 1/2 of the exact clamped volume *)
  for _ = 1 to 30 do
    let s = rand_union () in
    let t = Trivial_approx.trivial_approx s in
    let v = Volume_exact.volume_clamped s in
    check "within 1/2" true (Q.leq (Q.abs (Q.sub t v)) Q.half)
  done

let test_mu () =
  (* bounded sets have density zero *)
  let tri = Semilinear.of_conjunction dv2 tri_conj in
  check "bounded mu 0" true (Q.is_zero (Mu.mu tri));
  (* halfplane: 1/2 *)
  let half = Semilinear.halfspace dv2 (Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero) in
  check "halfplane 1/2" true (Q.equal (Mu.mu half) Q.half);
  (* quadrant: 1/4 *)
  let quad =
    Semilinear.of_conjunction dv2
      [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
        Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero ]
  in
  check "quadrant 1/4" true (Q.equal (Mu.mu quad) (qq 1 4));
  check "full 1" true (Q.equal (Mu.mu (Semilinear.full 2)) Q.one);
  check "empty 0" true (Q.is_zero (Mu.mu (Semilinear.empty 2)));
  (* a bounded strip union quadrant still 1/4 *)
  let mixed = Semilinear.union quad tri in
  check "union with bounded" true (Q.equal (Mu.mu mixed) (qq 1 4))

let test_var_indep () =
  let box = Semilinear.of_conjunction dv2 (iv dv2.(0) Q.zero Q.one @ iv dv2.(1) Q.zero Q.two) in
  check "box is vi" true (Var_indep.is_variable_independent box);
  check "vi volume" true (Q.equal (Var_indep.grid_volume box) (q 2));
  let tri = Semilinear.of_conjunction dv2 tri_conj in
  check "triangle not vi" false (Var_indep.is_variable_independent tri);
  (* union of boxes: vi and grid volume agrees with the sweep *)
  for _ = 1 to 20 do
    let boxes =
      Semilinear.make dv2
        (List.init (1 + Random.State.int rng 3) (fun _ ->
             List.concat_map
               (fun v ->
                 let a = qq (Random.State.int rng 9 - 4) 2 in
                 iv v a (Q.add a (qq (1 + Random.State.int rng 4) 2)))
               (Array.to_list dv2)))
    in
    check "vi detected" true (Var_indep.is_variable_independent boxes);
    check "grid = sweep" true
      (Q.equal (Var_indep.grid_volume boxes) (Volume_exact.volume boxes))
  done

(* ------------------------------------------------------------------ *)
(* Witness / Separating                                                *)
(* ------------------------------------------------------------------ *)

let test_witness () =
  let prng = Cqa_vc.Prng.create 3 in
  let a = Var.of_string "a" in
  (match Witness.witness ~prng fin_db [| a |] (Ast.Rel ("U", [ a ])) with
  | Some pt -> check "witness in relation" true (Db.mem_tuple fin_db "U" pt)
  | None -> Alcotest.fail "nonempty");
  check "empty none" true
    (Witness.witness ~prng fin_db [| a |] Ast.(And (Rel ("U", [ a ]), TVar a >! int 50)) = None);
  (* infinite: representative point *)
  match Witness.witness ~prng db [| a |] (Ast.Rel ("U", [ a ])) with
  | Some pt -> check "sample point in set" true (Db.mem_tuple db "U" pt)
  | None -> Alcotest.fail "nonempty set"

let test_separating_avg () =
  let delta = qq 1 10 in
  for n1 = 1 to 6 do
    for n2 = 1 to 6 do
      let u1, u2 = Separating.translate_points ~n1 ~n2 ~delta in
      check_int "sizes" n1 (List.length u1);
      (* all in the right bands *)
      List.iter (fun v -> check "u1 band" true (Q.lt Q.zero v && Q.lt v delta)) u1;
      List.iter
        (fun v -> check "u2 band" true (Q.lt (Q.sub Q.one delta) v && Q.lt v Q.one))
        u2;
      (* closed form equals direct average *)
      let direct =
        Q.div
          (List.fold_left Q.add Q.zero (u1 @ u2))
          (Q.of_int (n1 + n2))
      in
      check "avg closed form" true (Q.equal direct (Separating.avg_translated ~n1 ~n2 ~delta));
      (* ratio recovery *)
      match Separating.ratio_from_avg ~avg:direct ~delta with
      | Some r -> check "ratio" true (Q.equal r (qq n1 n2))
      | None -> Alcotest.fail "ratio defined"
    done
  done

let test_separating_thresholds () =
  let c1, c2 = Separating.separating_thresholds ~eps:(qq 1 10) ~delta:(qq 1 10) in
  check "c1 > 1" true (Q.gt c1 Q.one);
  check "symmetric" true (Q.equal c1 c2);
  (* the promised decision property: if n1 > c1 n2 then avg < 1/2 - eps *)
  let delta = qq 1 10 and eps = qq 1 10 in
  let n2 = 5 in
  let n1 = 1 + Bigint.to_int_exn (Q.ceil (Q.mul c1 (q n2))) in
  let avg = Separating.avg_translated ~n1 ~n2 ~delta in
  check "below threshold" true (Q.lt avg (Q.sub Q.half eps));
  Alcotest.check_raises "eps too big"
    (Invalid_argument "Separating.separating_thresholds: eps >= 1/2") (fun () ->
      ignore (Separating.separating_thresholds ~eps:Q.half ~delta:(qq 1 10)))

let test_lemma2 () =
  let gi = Separating.good_instance ~a_card:6 ~b:[ 0; 2; 3 ] in
  let vx, vy = Separating.lemma2_volumes gi in
  check "volumes in [0,1]" true
    (Q.leq Q.zero vx && Q.leq vx Q.one && Q.leq Q.zero vy && Q.leq vy Q.one);
  (* monotonicity: a bigger B gives a bigger X volume *)
  let gi_small = Separating.good_instance ~a_card:8 ~b:[ 0 ] in
  let gi_large = Separating.good_instance ~a_card:8 ~b:[ 0; 1; 2; 3; 4; 5 ] in
  let vxs, _ = Separating.lemma2_volumes gi_small in
  let vxl, _ = Separating.lemma2_volumes gi_large in
  check "monotone in |B|" true (Q.lt vxs vxl);
  Alcotest.check_raises "B proper"
    (Invalid_argument "Separating.good_instance: B must be a proper subset")
    (fun () -> ignore (Separating.good_instance ~a_card:2 ~b:[ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* Volume_param: Lemma 5                                               *)
(* ------------------------------------------------------------------ *)

let test_volume_param_section3 () =
  (* the Section 3 example, one parameter fixed: with a = 1/10, the set
     { (y1, y2, t) | a < y1 < t, 0 <= y2 <= y1, a <= t <= 1 } has section
     volume V(t) = (t^2 - a^2) / 2 on (a, 1) *)
  let a = qq 1 10 in
  let dv3 = Semilinear.default_vars 3 in
  let y1 = Linexpr.var dv3.(0) and y2 = Linexpr.var dv3.(1) and t = Linexpr.var dv3.(2) in
  let s =
    Semilinear.of_conjunction dv3
      [ Linconstr.lt (Linexpr.const a) y1; Linconstr.lt y1 t;
        Linconstr.ge y2 Linexpr.zero; Linconstr.le y2 y1;
        Linconstr.ge t (Linexpr.const a); Linconstr.le t (Linexpr.const Q.one) ]
  in
  let f = Volume_param.section_volume_function s in
  (* V(t) = t^2/2 - a^2/2: degree 2, hence not semi-linear (Lemma 5's point) *)
  check_int "degree 2" 2 (Volume_param.degree f);
  check "not piecewise linear" false (Volume_param.is_piecewise_linear f);
  List.iter
    (fun k ->
      let tv = qq k 10 in
      let expected = Q.mul (Q.sub (Q.mul tv tv) (Q.mul a a)) Q.half in
      check "matches closed form" true (Q.equal (Volume_param.eval f tv) expected))
    [ 2; 5; 9 ];
  (* integrating the pieces reproduces the total volume *)
  check "integral = volume" true
    (Q.equal (Volume_param.integrate f) (Volume_exact.volume s));
  (* the graph is semi-algebraic and contains (t, V(t)) *)
  let g = Volume_param.to_semialgebraic_graph f in
  check "graph member" true
    (Cqa_poly.Semialg.mem g [| Q.half; Volume_param.eval f Q.half |]);
  check "graph non-member" false
    (Cqa_poly.Semialg.mem g [| Q.half; Q.add (Volume_param.eval f Q.half) Q.one |])

let test_volume_param_box () =
  (* a box has piecewise-constant (degree 0) section volume *)
  let s =
    Semilinear.of_conjunction dv2 (iv dv2.(0) Q.zero (q 3) @ iv dv2.(1) Q.one (q 2))
  in
  let f = Volume_param.section_volume_function s in
  check "piecewise linear" true (Volume_param.is_piecewise_linear f);
  check "constant 3 inside" true (Q.equal (Volume_param.eval f (qq 3 2)) (q 3));
  check "integral" true (Q.equal (Volume_param.integrate f) (q 3))

(* Exec.volume and a cold Volume_param.refresh both integrate the pieces
   of Volume_exact.section_pieces; the Lasserre inclusion-exclusion engine
   shares no code with it, so it is their independent reference.  The
   pool is forced so the multi-domain runs really chunk. *)
let fixed_3d_sets () =
  let dv3 = Semilinear.default_vars 3 in
  let y1 = Linexpr.var dv3.(0) and y2 = Linexpr.var dv3.(1) and t = Linexpr.var dv3.(2) in
  let a = qq 1 10 in
  let section3 =
    Semilinear.of_conjunction dv3
      [ Linconstr.lt (Linexpr.const a) y1; Linconstr.lt y1 t;
        Linconstr.ge y2 Linexpr.zero; Linconstr.le y2 y1;
        Linconstr.ge t (Linexpr.const a); Linconstr.le t (Linexpr.const Q.one) ]
  in
  let box lo hi = List.concat (List.init 3 (fun i -> iv dv3.(i) lo.(i) hi.(i))) in
  let boxes =
    Semilinear.make dv3
      [ box [| Q.zero; Q.zero; Q.zero |] [| q 2; Q.one; Q.one |];
        box [| Q.one; Q.half; Q.zero |] [| q 3; q 2; qq 3 2 |] ]
  in
  let random seed =
    Cqa_workload.Generators.semilinear (Cqa_vc.Prng.create seed) ~dim:3 ~disjuncts:2
  in
  (dv3, [ section3; boxes; random 102; random 7 ])

let test_shared_sweep_reference () =
  let dv3, sets = fixed_3d_sets () in
  let schema3 = Schema.of_list [ ("R", 3) ] in
  let f = Ast.Rel ("R", Array.to_list dv3) in
  Cqa_conc.Pool.set_mode Cqa_conc.Pool.Always;
  Fun.protect ~finally:(fun () -> Cqa_conc.Pool.set_mode Cqa_conc.Pool.Auto) @@ fun () ->
  List.iteri
    (fun i s ->
      let reference = Volume_exact.volume_incl_excl s in
      let db3 = Db.of_list schema3 [ ("R", Db.Semilin s) ] in
      List.iter
        (fun domains ->
          Plan.clear_cache ();
          let p = Plan.cached ~coords:dv3 f in
          check
            (Printf.sprintf "set %d: Exec.volume = incl-excl at %d domains" i domains)
            true
            (Q.equal (Exec.volume ~domains p db3) reference);
          let pieces, recomputed, reused =
            Volume_param.refresh ~domains ~old:[] ~dirty:(fun _ _ -> false) s
          in
          check
            (Printf.sprintf "set %d: cold refresh = incl-excl at %d domains" i domains)
            true
            (Q.equal (Volume_param.integrate pieces) reference);
          check_int "cold refresh reuses nothing" 0 reused;
          check_int "cold refresh builds every piece" (List.length pieces) recomputed)
        [ 1; 2; 4 ])
    sets

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_formulas () =
  let cases =
    [ ("true", Ast.True);
      ("x < 3", Ast.(v "x" <! int 3));
      ("x + 2*y <= z - 1", Ast.(v "x" +! (int 2 *! v "y") <=! (v "z" -! int 1)));
      ("U(x)", Ast.Rel ("U", [ Var.of_string "x" ]));
      ("R(x, y)", Ast.Rel ("R", [ Var.of_string "x"; Var.of_string "y" ]));
      ("~(x = y)", Ast.(Not (v "x" =! v "y")));
      ("x < 1 /\\ y < 2", Ast.(And (v "x" <! int 1, v "y" <! int 2)));
      ("x < 1 \\/ y < 2 /\\ z < 3",
        Ast.(Or (v "x" <! int 1, And (v "y" <! int 2, v "z" <! int 3))));
      ("exists x y . x < y",
        Ast.(Exists (Var.of_string "x", Exists (Var.of_string "y", v "x" <! v "y"))));
      ("forall x . U(x) -> x <= 1",
        Ast.(Forall (Var.of_string "x",
          implies (Rel ("U", [ Var.of_string "x" ])) (v "x" <=! int 1))));
      ("(x + 1) * y = 3/4", Ast.(Mul (Add (v "x", int 1), v "y") =! Const (qq 3 4)));
      ("x = 0.25", Ast.(v "x" =! Const (qq 1 4))) ]
  in
  List.iter
    (fun (src, expected) ->
      let got = Parser.formula_of_string src in
      if got <> expected then
        Alcotest.failf "parse %S: got %s" src (Format.asprintf "%a" Ast.pp got))
    cases

let test_parser_sum () =
  let t =
    Parser.term_of_string
      "SUM { w | true | END(y . U(y)) } (x . x = w)"
  in
  (* parses and evaluates like the hand-built endpoint sum *)
  check "sum value" true (Q.equal (Eval.eval_term db Var.Map.empty t) (q 6))

let test_parser_roundtrip () =
  let formulas =
    [ "x < 3"; "x + 2*y <= z - 1"; "U(x)"; "~(x = y)";
      "x < 1 /\\ y < 2"; "exists x . x < y"; "forall x . U(x) -> x <= 1" ]
  in
  List.iter
    (fun src ->
      let f = Parser.formula_of_string src in
      let printed = Parser.formula_to_string f in
      let f' = Parser.formula_of_string printed in
      if f <> f' then Alcotest.failf "roundtrip failed for %S via %S" src printed)
    formulas;
  (* terms too, including SUM *)
  let srcs = [ "x + 2*y"; "SUM { w | w >= 2 | END(y . U(y)) } (x . x = w)" ] in
  List.iter
    (fun src ->
      let t = Parser.term_of_string src in
      let t' = Parser.term_of_string (Parser.term_to_string t) in
      if t <> t' then Alcotest.failf "term roundtrip failed for %S" src)
    srcs

let test_parser_errors () =
  List.iter
    (fun src ->
      check ("rejects " ^ src) true
        (try
           ignore (Parser.formula_of_string src);
           false
         with Parser.Parse_error _ -> true))
    [ ""; "x <"; "(x < 1"; "x ? y"; "exists . x < 1"; "U(x" ]

(* ------------------------------------------------------------------ *)
(* Safety                                                              *)
(* ------------------------------------------------------------------ *)

let test_safety () =
  let good = sum_endpoints Ast.True in
  check "good term safe" true (Safety.is_safe db good);
  (* unknown relation *)
  let bad_rel =
    Ast.sum ~gamma_var:xx ~gamma:Ast.(TVar xx =! TVar w) ~w:[ w ]
      ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("Missing", [ yy ]))
  in
  check "unknown relation flagged" true
    (List.exists
       (function Safety.Unknown_relation "Missing" -> true | _ -> false)
       (Safety.check_term db bad_rel));
  (* arity mismatch *)
  let bad_arity = Ast.Rel ("U", [ xx; yy ]) in
  check "arity flagged" true
    (List.exists
       (function Safety.Arity_mismatch _ -> true | _ -> false)
       (Safety.check_formula db bad_arity));
  (* nondeterministic gamma *)
  let nondet =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(conj [ TVar xx >=! TVar w; TVar xx <=! (TVar w +! int 1) ])
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "nondet flagged" true
    (List.exists
       (function Safety.Nondeterministic_gamma _ -> true | _ -> false)
       (Safety.check_term db nondet));
  check "nondet unsafe" false (Safety.is_safe db nondet);
  (* nonlinear non-graph gamma: undecided, still "safe" (runtime enforced) *)
  let undecided =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(Cmp (Ast.Cle, Mul (TVar xx, TVar xx), TVar w))
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "undecided flagged but safe" true (Safety.is_safe db undecided);
  check "undecided issue present" true
    (List.exists
       (function Safety.Undecided_gamma _ -> true | _ -> false)
       (Safety.check_term db undecided))

(* Regression: issues inside Sum terms nested under Cmp atoms of a guard or
   END body must be reported, and a gamma whose schema is broken must not
   crash the determinism decision (Deterministic.check used to escape with
   Not_found / Invalid_argument from the linear reducer). *)
let test_safety_nested_sum () =
  let has_missing issues =
    List.exists
      (function Safety.Unknown_relation "Missing" -> true | _ -> false)
      issues
  in
  (* gamma references an uninterpreted relation: no exception, issue kept *)
  let inner =
    Ast.sum ~gamma_var:xx
      ~gamma:(Ast.And (Ast.Rel ("Missing", [ xx ]), Ast.(TVar xx =! TVar w)))
      ~w:[ w ] ~guard:Ast.True ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "gamma schema issue reported" true
    (has_missing (Safety.check_term db inner));
  check "det check survives broken gamma" true
    (Deterministic.check db ~gamma_var:xx
       ~w:[ w ]
       (Ast.And (Ast.Rel ("Missing", [ xx ]), Ast.(TVar xx =! TVar w)))
    = Deterministic.Unknown);
  (* ill-arity gamma likewise *)
  check "det check survives ill arity" true
    (Deterministic.check db ~gamma_var:xx ~w:[ w ]
       (Ast.And (Ast.Rel ("U", [ xx; w ]), Ast.(TVar xx =! TVar w)))
    = Deterministic.Unknown);
  (* the bad sum nested under a Cmp atom inside another sum's guard *)
  let z = Var.of_string "z" in
  let nest_in_guard =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(TVar xx =! TVar z)
      ~w:[ z ]
      ~guard:(Ast.Cmp (Ast.Cle, inner, Ast.TVar z))
      ~end_y:yy ~end_body:(Ast.Rel ("U", [ yy ]))
  in
  check "issue surfaces from guard atom" true
    (has_missing (Safety.check_term db nest_in_guard));
  (* ... and inside the END body *)
  let nest_in_end =
    Ast.sum ~gamma_var:xx
      ~gamma:Ast.(TVar xx =! TVar z)
      ~w:[ z ] ~guard:Ast.True ~end_y:yy
      ~end_body:(Ast.Cmp (Ast.Cle, inner, Ast.TVar yy))
  in
  check "issue surfaces from END atom" true
    (has_missing (Safety.check_term db nest_in_end));
  (* formula-level entry points *)
  check "is_safe_formula flags nested issue" false
    (Safety.is_safe_formula db (Ast.Cmp (Ast.Cle, inner, Ast.int 0)));
  check "is_safe_formula accepts clean query" true
    (Safety.is_safe_formula db
       (Ast.Cmp (Ast.Cle, sum_endpoints Ast.True, Ast.int 5)))

(* ------------------------------------------------------------------ *)
(* Grouping                                                            *)
(* ------------------------------------------------------------------ *)

let test_group_by () =
  let schema_g = Schema.of_list [ ("Sale", 2) ] in
  (* Sale(region, amount) *)
  let dbg =
    Db.of_list schema_g
      [ ( "Sale",
          Db.Finite
            [ [| q 1; q 10 |]; [| q 1; q 20 |]; [| q 2; q 5 |];
              [| q 2; q 7 |]; [| q 2; q 9 |] ] ) ]
  in
  let r = Var.of_string "r" and a = Var.of_string "a" in
  let query = Ast.Rel ("Sale", [ r; a ]) in
  (match Aggregates.group_count dbg [| r; a |] query ~key:[ 0 ] with
  | Some [ (k1, c1); (k2, c2) ] ->
      check "group keys" true (Q.equal k1.(0) (q 1) && Q.equal k2.(0) (q 2));
      check "group counts" true (c1 = 2 && c2 = 3)
  | _ -> Alcotest.fail "two groups expected");
  (match Aggregates.group_sum dbg [| r; a |] query ~key:[ 0 ] ~value:1 with
  | Some [ (_, s1); (_, s2) ] ->
      check "group sums" true (Q.equal s1 (q 30) && Q.equal s2 (q 21))
  | _ -> Alcotest.fail "sums");
  (match Aggregates.group_avg dbg [| r; a |] query ~key:[ 0 ] ~value:1 with
  | Some [ (_, a1); (_, a2) ] ->
      check "group avgs" true (Q.equal a1 (q 15) && Q.equal a2 (q 7))
  | _ -> Alcotest.fail "avgs");
  (* grouping an infinite output is refused *)
  check "infinite none" true
    (Aggregates.group_count db [| Var.of_string "u" |]
       (Ast.Rel ("U", [ Var.of_string "u" ]))
       ~key:[ 0 ]
    = None)

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

let test_compile_interval_measure () =
  let term = Compile.interval_measure_term ~rel:"U" in
  check "U measure 2" true (Q.equal (Eval.eval_term db Var.Map.empty term) (q 2));
  (* with an extra point component: points add nothing *)
  let u3 = Semilinear.union u_set (Semilinear.make [| x0 |] [ iv x0 (q 5) (q 5) ]) in
  let db3 = Db.of_list schema [ ("U", Db.Semilin u3) ] in
  check "point adds 0" true (Q.equal (Eval.eval_term db3 Var.Map.empty term) (q 2))

let test_compile_polygon_area () =
  let term = Compile.polygon_area_term ~rel:"P" in
  check "triangle" true (Q.equal (Eval.eval_term db Var.Map.empty term) (q 2));
  let sq =
    Semilinear.of_conjunction dv2 (iv dv2.(0) Q.zero (q 3) @ iv dv2.(1) Q.zero (q 2))
  in
  let db_sq = Db.of_list schema [ ("P", Db.Semilin sq) ] in
  check "rectangle" true (Q.equal (Eval.eval_term db_sq Var.Map.empty term) (q 6));
  let pent =
    Semilinear.of_conjunction dv2
      (iv dv2.(0) Q.zero (q 3) @ iv dv2.(1) Q.zero (q 2)
      @ [ Linconstr.le
            (Linexpr.add (Linexpr.var dv2.(0)) (Linexpr.var dv2.(1)))
            (Linexpr.const (q 4)) ])
  in
  let db_p = Db.of_list schema [ ("P", Db.Semilin pent) ] in
  check "pentagon" true (Q.equal (Eval.eval_term db_p Var.Map.empty term) (qq 11 2))

let () =
  Alcotest.run "cqa_core"
    [ ( "ast",
        [ Alcotest.test_case "free vars" `Quick test_ast_free_vars;
          Alcotest.test_case "subst" `Quick test_ast_subst;
          Alcotest.test_case "subst sum binders" `Quick test_ast_subst_sum;
          Alcotest.test_case "conversions" `Quick test_ast_conversions ] );
      ("db", [ Alcotest.test_case "db" `Quick test_db ]);
      ( "eval",
        [ Alcotest.test_case "sum endpoints" `Quick test_eval_sum_endpoints;
          Alcotest.test_case "holds quantifiers" `Quick test_eval_holds_quantifiers;
          Alcotest.test_case "set closure" `Quick test_eval_set_closure;
          Alcotest.test_case "section" `Quick test_eval_section;
          Alcotest.test_case "gamma partial" `Quick test_eval_gamma_partial;
          Alcotest.test_case "nondeterministic gamma" `Quick test_eval_nondeterministic_gamma_rejected;
          Alcotest.test_case "unsupported" `Quick test_eval_unsupported;
          Alcotest.test_case "section alg" `Quick test_eval_section_alg ] );
      ( "deterministic",
        [ Alcotest.test_case "verdicts" `Quick test_deterministic;
          Alcotest.test_case "spellings" `Quick test_deterministic_spellings ] );
      ( "aggregates",
        [ Alcotest.test_case "classical" `Quick test_aggregates;
          Alcotest.test_case "gamma" `Quick test_aggregates_gamma ] );
      ( "volume",
        [ Alcotest.test_case "known" `Quick test_volume_known;
          Alcotest.test_case "cross check" `Quick test_volume_cross_check;
          Alcotest.test_case "additivity" `Quick test_volume_additivity;
          Alcotest.test_case "monotone" `Quick test_volume_monotone;
          Alcotest.test_case "approx semialg" `Quick test_volume_approx;
          Alcotest.test_case "approx query" `Quick test_volume_approx_query;
          Alcotest.test_case "approx domains" `Quick test_volume_approx_domains;
          Alcotest.test_case "oracle exact fallback" `Quick test_oracle_fallback;
          Alcotest.test_case "exact volume domains" `Quick test_volume_domains;
          Alcotest.test_case "kernel ablation byte-identical" `Quick
            test_volume_kernel_ablation;
          Alcotest.test_case "arrangement vertices" `Quick test_arrangement_vertices;
          Alcotest.test_case "trivial approx" `Quick test_trivial_approx;
          Alcotest.test_case "mu" `Quick test_mu;
          Alcotest.test_case "variable independence" `Quick test_var_indep ] );
      ( "witness-separating",
        [ Alcotest.test_case "witness" `Quick test_witness;
          Alcotest.test_case "separating avg" `Quick test_separating_avg;
          Alcotest.test_case "thresholds" `Quick test_separating_thresholds;
          Alcotest.test_case "lemma 2" `Quick test_lemma2 ] );
      ( "volume-param",
        [ Alcotest.test_case "section 3 closed form" `Quick test_volume_param_section3;
          Alcotest.test_case "box" `Quick test_volume_param_box;
          Alcotest.test_case "shared sweep = incl-excl, dom 1/2/4" `Quick
            test_shared_sweep_reference ] );
      ( "parser",
        [ Alcotest.test_case "formulas" `Quick test_parser_formulas;
          Alcotest.test_case "sum" `Quick test_parser_sum;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "errors" `Quick test_parser_errors ] );
      ( "safety-grouping",
        [ Alcotest.test_case "safety" `Quick test_safety;
          Alcotest.test_case "nested sums" `Quick test_safety_nested_sum;
          Alcotest.test_case "group by" `Quick test_group_by ] );
      ( "compile",
        [ Alcotest.test_case "interval measure" `Quick test_compile_interval_measure;
          Alcotest.test_case "polygon area" `Slow test_compile_polygon_area ] ) ]
