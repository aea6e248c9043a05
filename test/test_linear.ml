open Cqa_arith
open Cqa_logic
open Cqa_linear

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int
let qq = Q.of_ints
let x = Var.of_string "x"
let y = Var.of_string "y"
let z = Var.of_string "z"
let ex = Linexpr.var x
let ey = Linexpr.var y

(* seeded helpers *)
let rng = Random.State.make [| 2024 |]

let rand_expr vars =
  Linexpr.of_list
    (q (Random.State.int rng 11 - 5))
    (List.filter_map
       (fun v ->
         let c = Random.State.int rng 7 - 3 in
         if c = 0 then None else Some (q c, v))
       vars)

let rand_atom vars =
  let e = rand_expr vars in
  match Random.State.int rng 3 with
  | 0 -> Linconstr.make e Linconstr.Le
  | 1 -> Linconstr.make e Linconstr.Lt
  | _ -> Linconstr.make e Linconstr.Eq

let rand_conj vars n = List.init n (fun _ -> rand_atom vars)

let grid2 =
  List.concat_map
    (fun i -> List.map (fun j -> (qq i 2, qq j 2)) (List.init 13 (fun j -> j - 6)))
    (List.init 13 (fun i -> i - 6))

let env2 (a, b) = Var.Map.add x a (Var.Map.singleton y b)

(* ------------------------------------------------------------------ *)
(* Linexpr / Linconstr                                                 *)
(* ------------------------------------------------------------------ *)

let test_linexpr_ops () =
  let e = Linexpr.of_list (q 3) [ (q 2, x); (q (-1), y) ] in
  check "coeff x" true (Q.equal (Linexpr.coeff e x) Q.two);
  check "coeff absent" true (Q.is_zero (Linexpr.coeff e z));
  check "const" true (Q.equal (Linexpr.constant e) (q 3));
  check "eval" true
    (Q.equal (Linexpr.eval e (env2 (q 1, q 2))) (q 3));
  let e2 = Linexpr.add e (Linexpr.monomial (q (-2)) x) in
  check "cancel" true (Linexpr.vars e2 = [ y ]);
  check "subst" true
    (Q.equal
       (Linexpr.eval (Linexpr.subst e x (Linexpr.add ey (Linexpr.const Q.one)))
          (Var.Map.singleton y (q 2)))
       (Q.add (q 3) (Q.add (q 6) (q (-2)))));
  (match Linexpr.solve_for e x with
  | None -> Alcotest.fail "solvable"
  | Some sol ->
      (* x = (-3 + y) / 2 *)
      check "solve_for" true
        (Q.equal (Linexpr.eval sol (Var.Map.singleton y (q 5))) Q.one));
  check "solve_for absent" true (Linexpr.solve_for e z = None)

let test_linconstr_normalization () =
  let a = Linconstr.make (Linexpr.of_list (q 2) [ (q 4, x) ]) Linconstr.Le in
  let b = Linconstr.make (Linexpr.of_list (q 1) [ (q 2, x) ]) Linconstr.Le in
  check "scaling collapses" true (Linconstr.equal a b);
  let e1 = Linconstr.make (Linexpr.of_list Q.zero [ (q (-3), x) ]) Linconstr.Eq in
  let e2 = Linconstr.make (Linexpr.of_list Q.zero [ (q 3, x) ]) Linconstr.Eq in
  check "eq orientation" true (Linconstr.equal e1 e2)

let test_linconstr_negate () =
  for _ = 1 to 100 do
    let a = rand_atom [ x; y ] in
    let negs = Linconstr.negate a in
    List.iter
      (fun pt ->
        let env = env2 pt in
        check "negate pointwise"
          (not (Linconstr.holds a env))
          (List.exists (fun n -> Linconstr.holds n env) negs))
      grid2
  done

(* ------------------------------------------------------------------ *)
(* Linformula / DNF                                                    *)
(* ------------------------------------------------------------------ *)

let rand_qf_formula depth =
  let rec go depth =
    if depth = 0 then Formula.Atom (rand_atom [ x; y ])
    else begin
      match Random.State.int rng 4 with
      | 0 -> Formula.Not (go (depth - 1))
      | 1 -> Formula.And (go (depth - 1), go (depth - 1))
      | 2 -> Formula.Or (go (depth - 1), go (depth - 1))
      | _ -> go (depth - 1)
    end
  in
  go depth

let test_dnf_equivalence () =
  for _ = 1 to 120 do
    let f = rand_qf_formula 3 in
    let d = Linformula.dnf_of_qf f in
    List.iter
      (fun pt ->
        let env = env2 pt in
        check "dnf pointwise" (Linformula.holds_qf f env) (Linformula.dnf_holds d env))
      grid2
  done

let test_simplify_conjunction () =
  let t = Linconstr.make (Linexpr.const (q (-1))) Linconstr.Le in
  let f = Linconstr.make (Linexpr.const (q 1)) Linconstr.Le in
  let a = Linconstr.lt ex ey in
  check "trivial true dropped" true
    (Linformula.simplify_conjunction [ t; a; a ] = Some [ a ]);
  check "trivial false kills" true (Linformula.simplify_conjunction [ a; f ] = None)

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin                                                     *)
(* ------------------------------------------------------------------ *)

let test_fm_known () =
  (* exists y. x < y < 5  <=>  x < 5 *)
  let f =
    Formula.Exists
      ( y,
        Formula.And
          (Formula.Atom (Linconstr.lt ex ey), Formula.Atom (Linconstr.lt ey (Linexpr.const (q 5))))
      )
  in
  check "exists" true
    (Fourier_motzkin.equivalent f (Formula.Atom (Linconstr.lt ex (Linexpr.const (q 5)))));
  (* forall y. y > 0 -> y > x  <=>  x <= 0 *)
  let g =
    Formula.Forall
      ( y,
        Formula.implies
          (Formula.Atom (Linconstr.gt ey Linexpr.zero))
          (Formula.Atom (Linconstr.gt ey ex)) )
  in
  check "forall" true
    (Fourier_motzkin.equivalent g (Formula.Atom (Linconstr.le ex Linexpr.zero)));
  (* density: between any two reals there is a third *)
  let dense =
    Formula.forall_many [ x; y ]
      (Formula.implies
         (Formula.Atom (Linconstr.lt ex ey))
         (Formula.Exists
            ( z,
              Formula.And
                ( Formula.Atom (Linconstr.lt ex (Linexpr.var z)),
                  Formula.Atom (Linconstr.lt (Linexpr.var z) ey) ) )))
  in
  check "density valid" true (Fourier_motzkin.valid dense);
  (* discreteness is false over R *)
  let succ_exists =
    Formula.Exists
      ( y,
        Formula.And
          ( Formula.Atom (Linconstr.lt ex ey),
            Formula.Forall
              ( z,
                Formula.implies
                  (Formula.Atom (Linconstr.lt ex (Linexpr.var z)))
                  (Formula.Atom (Linconstr.le ey (Linexpr.var z))) ) ) )
  in
  check "no successor" false (Fourier_motzkin.sat succ_exists)

let test_fm_eliminate_sound () =
  for _ = 1 to 400 do
    let conj = rand_conj [ x; y ] (1 + Random.State.int rng 4) in
    let elim = Fourier_motzkin.eliminate_var y conj in
    List.iter
      (fun xv ->
        let env = Var.Map.singleton x xv in
        let lhs =
          match elim with None -> false | Some c -> Linformula.conj_holds c env
        in
        let rhs =
          Fourier_motzkin.satisfiable_conj
            (List.map (fun a -> Linconstr.eval_partial a env) conj)
        in
        check "eliminate sound" rhs lhs)
      [ q (-3); qq (-1) 2; Q.zero; qq 3 4; q 2; q 5 ]
  done

let test_fm_sat_kernels_agree () =
  for _ = 1 to 300 do
    let conj = rand_conj [ x; y; z ] (1 + Random.State.int rng 6) in
    let a = Fourier_motzkin.satisfiable_conj conj in
    check "fm = simplex" a (Fourier_motzkin.satisfiable_conj_simplex conj);
    check "fm = fm_explicit" a (Fourier_motzkin.satisfiable_conj_fm conj)
  done

let test_fm_sample_point () =
  for _ = 1 to 300 do
    let conj = rand_conj [ x; y; z ] (1 + Random.State.int rng 5) in
    match Fourier_motzkin.sample_point conj with
    | Some env -> check "model" true (Linformula.conj_holds conj env)
    | None -> check "unsat" false (Fourier_motzkin.satisfiable_conj conj)
  done

let test_fm_complement () =
  for _ = 1 to 60 do
    let f = rand_qf_formula 3 in
    let d = Linformula.dnf_of_qf f in
    let c = Fourier_motzkin.complement_dnf d in
    List.iter
      (fun pt ->
        let env = env2 pt in
        check "complement pointwise"
          (not (Linformula.dnf_holds d env))
          (Linformula.dnf_holds c env))
      grid2
  done

let test_fm_entails_prune () =
  let conj =
    [ Linconstr.le ex (Linexpr.const (q 1));
      Linconstr.le ex (Linexpr.const (q 2));
      Linconstr.ge ey Linexpr.zero ]
  in
  check "entails" true
    (Fourier_motzkin.entails_conj conj (Linconstr.le ex (Linexpr.const (q 3))));
  check "not entails" false
    (Fourier_motzkin.entails_conj conj (Linconstr.le ex Linexpr.zero));
  let pruned = Fourier_motzkin.prune_redundant conj in
  check_int "redundant dropped" 2 (List.length pruned)

let test_tighten_parallel () =
  for _ = 1 to 200 do
    let conj = rand_conj [ x; y ] (2 + Random.State.int rng 5) in
    let t = Fourier_motzkin.tighten_parallel conj in
    check "tighten shrinks" true (List.length t <= List.length conj);
    List.iter
      (fun pt ->
        let env = env2 pt in
        check "tighten equivalent" (Linformula.conj_holds conj env)
          (Linformula.conj_holds t env))
      grid2
  done

let test_qe_pointwise () =
  (* qe of quantified formulas agrees with finite-witness semantics on a
     grid: compare exists y. f  against grid search in y over a wide range
     only when f's y-section is grid-representable; instead check internal
     consistency: qe o qe = qe, and sat of f <=> dnf nonempty after full
     elimination *)
  for _ = 1 to 60 do
    let f = rand_qf_formula 2 in
    let qf = Formula.Exists (y, f) in
    let d = Fourier_motzkin.qe qf in
    List.iter
      (fun xv ->
        let env = Var.Map.singleton x xv in
        let lhs = Linformula.dnf_holds d env in
        (* direct: substitute x and decide satisfiability over y *)
        let rhs =
          Fourier_motzkin.sat
            (Linformula.of_dnf
               (List.filter_map
                  (fun conj ->
                    Linformula.simplify_conjunction
                      (List.map (fun a -> Linconstr.eval_partial a env) conj))
                  (Linformula.dnf_of_qf f)))
        in
        check "qe pointwise" rhs lhs)
      [ q (-2); Q.zero; qq 1 2; q 3 ]
  done

let test_qe_memo_agrees_with_cold () =
  (* elimination is deterministic, so a memo hit must return exactly what
     a cold run computes *)
  let formulas =
    List.init 25 (fun _ ->
        Formula.Exists (y, Formula.Exists (z, rand_qf_formula 2)))
  in
  Fourier_motzkin.clear_qe_cache ();
  let cold = List.map Fourier_motzkin.qe formulas in
  check "cache populated" true (Fourier_motzkin.qe_cache_size () > 0);
  let warm = List.map Fourier_motzkin.qe formulas in
  check "warm = cold" true (cold = warm);
  Fourier_motzkin.clear_qe_cache ();
  let recold = List.map Fourier_motzkin.qe formulas in
  check "recold = cold" true (cold = recold)

let test_qe_memo_eviction () =
  (* a tiny capacity forces evictions mid-stream; results must not change
     and the table must stay bounded *)
  Fourier_motzkin.clear_qe_cache ();
  Fourier_motzkin.set_qe_cache_capacity 8;
  Fun.protect
    ~finally:(fun () ->
      Fourier_motzkin.set_qe_cache_capacity 65536;
      Fourier_motzkin.clear_qe_cache ())
    (fun () ->
      let formulas =
        List.init 40 (fun _ -> Formula.Exists (y, rand_qf_formula 2))
      in
      let evicting = List.map Fourier_motzkin.qe formulas in
      check "table bounded" true (Fourier_motzkin.qe_cache_size () <= 8);
      Fourier_motzkin.clear_qe_cache ();
      Fourier_motzkin.set_qe_cache_capacity 65536;
      let roomy = List.map Fourier_motzkin.qe formulas in
      check "eviction preserves results" true (evicting = roomy))

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplex_known () =
  let sys =
    [ Linconstr.le ex (Linexpr.const (q 3));
      Linconstr.le ey (Linexpr.const (q 2));
      Linconstr.le (Linexpr.add ex ey) (Linexpr.const (q 4));
      Linconstr.ge ex Linexpr.zero;
      Linconstr.ge ey Linexpr.zero ]
  in
  (match Simplex.maximize ~objective:(Linexpr.add ex ey) ~constraints:sys with
  | Simplex.Optimal (v, pt) ->
      check "max value" true (Q.equal v (q 4));
      check "max point feasible" true (Linformula.conj_holds sys pt)
  | _ -> Alcotest.fail "expected optimum");
  (match Simplex.minimize ~objective:(Linexpr.sub ex ey) ~constraints:sys with
  | Simplex.Optimal (v, _) -> check "min value" true (Q.equal v (q (-2)))
  | _ -> Alcotest.fail "expected optimum");
  check "unbounded" true
    (Simplex.maximize ~objective:ex ~constraints:[ Linconstr.ge ex Linexpr.zero ]
    = Simplex.Unbounded);
  check "infeasible" true
    (Simplex.maximize ~objective:ex
       ~constraints:
         [ Linconstr.le ex Linexpr.zero; Linconstr.ge ex (Linexpr.const Q.one) ]
    = Simplex.Infeasible);
  (match Simplex.range ex sys with
  | Some (Some lo, Some hi) ->
      check "range" true (Q.is_zero lo && Q.equal hi (q 3))
  | _ -> Alcotest.fail "expected bounded range")

(* Warm-basis reuse: [range] re-solves from the basis cached for the same
   constraint list; the optimum VALUES it returns must be byte-identical
   to a cold solve (values are unique even when optimal points are not),
   on handcrafted and random systems alike. *)
let test_simplex_warm_basis () =
  let sys =
    [ Linconstr.le ex (Linexpr.const (q 3));
      Linconstr.le ey (Linexpr.const (q 2));
      Linconstr.le (Linexpr.add ex ey) (Linexpr.const (q 4));
      Linconstr.ge ex Linexpr.zero;
      Linconstr.ge ey Linexpr.zero ]
  in
  Simplex.clear_basis_cache ();
  let cold_x = Simplex.range ex sys in
  let cold_y = Simplex.range ey sys in
  (* both ranges warm now: re-solve and cross-warm with a third objective *)
  let warm_x = Simplex.range ex sys in
  let warm_sum = Simplex.range (Linexpr.add ex ey) sys in
  check "warm x = cold x" true (cold_x = warm_x);
  check "warm y stable" true (cold_y = Simplex.range ey sys);
  (match warm_sum with
  | Some (Some lo, Some hi) ->
      check "warm sum" true (Q.is_zero lo && Q.equal hi (q 4))
  | _ -> Alcotest.fail "expected bounded range");
  Simplex.clear_basis_cache ();
  check "recold x = cold x" true (cold_x = Simplex.range ex sys);
  (* random systems: warm range values always equal the cold values *)
  for _ = 1 to 100 do
    let conj =
      List.map
        (fun a ->
          match Linconstr.op a with
          | Linconstr.Lt -> Linconstr.make (Linconstr.expr a) Linconstr.Le
          | _ -> a)
        (rand_conj [ x; y; z ] (1 + Random.State.int rng 5))
    in
    let e = rand_expr [ x; y; z ] in
    Simplex.clear_basis_cache ();
    let cold = Simplex.range e conj in
    let warm = Simplex.range e conj in
    check "random warm = cold" true (cold = warm)
  done

(* feasible_strict: same verdict as the witness-producing strict check on
   random systems, and a repeated identical query warm-starts from the
   cached basis (the [simplex.basis.reuse] counter ticks). *)
let test_feasible_strict_warm () =
  Simplex.clear_basis_cache ();
  for _ = 1 to 150 do
    let conj = rand_conj [ x; y; z ] (1 + Random.State.int rng 5) in
    check "feasible_strict = strictly_feasible"
      (Simplex.strictly_feasible conj <> None)
      (Simplex.feasible_strict conj)
  done;
  let module T = Cqa_telemetry.Telemetry in
  let reuse () =
    match List.assoc_opt "simplex.basis.reuse" (T.snapshot ()).T.counters with
    | Some v -> v
    | None -> 0
  in
  let sys =
    [ Linconstr.lt ex (Linexpr.const (q 3));
      Linconstr.lt (Linexpr.neg ex) Linexpr.zero;
      Linconstr.lt (Linexpr.sub ey ex) Linexpr.zero ]
  in
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  Simplex.clear_basis_cache ();
  check "strict sys feasible" true (Simplex.feasible_strict sys);
  let before = reuse () in
  check "still feasible warm" true (Simplex.feasible_strict sys);
  check "basis reuse ticked" true (reuse () > before)

let test_simplex_vs_fm_random () =
  for _ = 1 to 400 do
    let nonstrict =
      List.map
        (fun a ->
          match Linconstr.op a with
          | Linconstr.Lt -> Linconstr.make (Linconstr.expr a) Linconstr.Le
          | _ -> a)
        (rand_conj [ x; y; z ] (1 + Random.State.int rng 6))
    in
    (match Simplex.feasible nonstrict with
    | Some pt -> check "feasible point valid" true (Linformula.conj_holds nonstrict pt)
    | None -> check "fm agrees unsat" false (Fourier_motzkin.satisfiable_conj nonstrict));
    let mixed = rand_conj [ x; y; z ] (1 + Random.State.int rng 6) in
    match Simplex.strictly_feasible mixed with
    | Some pt -> check "strict point valid" true (Linformula.conj_holds mixed pt)
    | None -> check "fm agrees strict unsat" false (Fourier_motzkin.satisfiable_conj mixed)
  done

(* ------------------------------------------------------------------ *)
(* Cell1                                                               *)
(* ------------------------------------------------------------------ *)

let samples_q = List.init 101 (fun i -> qq (i - 50) 4)

let rand_cell () =
  let base = ref Cell1.empty in
  for _ = 1 to Random.State.int rng 4 do
    let a = qq (Random.State.int rng 21 - 10) 2
    and b = qq (Random.State.int rng 21 - 10) 2 in
    let lo = Q.min a b and hi = Q.max a b in
    let piece =
      match Random.State.int rng 5 with
      | 0 -> Cell1.point a
      | 1 -> Cell1.open_interval lo hi
      | 2 -> Cell1.closed_interval lo hi
      | 3 -> Cell1.half_open_right lo hi
      | _ -> if Random.State.bool rng then Cell1.ray_lt a else Cell1.ray_ge a
    in
    base := Cell1.union !base piece
  done;
  !base

let test_cell1_boolean_algebra () =
  for _ = 1 to 400 do
    let a = rand_cell () and b = rand_cell () in
    let u = Cell1.union a b
    and i = Cell1.inter a b
    and d = Cell1.diff a b
    and c = Cell1.compl a in
    List.iter
      (fun v ->
        check "union" (Cell1.mem a v || Cell1.mem b v) (Cell1.mem u v);
        check "inter" (Cell1.mem a v && Cell1.mem b v) (Cell1.mem i v);
        check "diff" (Cell1.mem a v && not (Cell1.mem b v)) (Cell1.mem d v);
        check "compl" (not (Cell1.mem a v)) (Cell1.mem c v))
      samples_q;
    check "canonical idempotent union" true (Cell1.equal (Cell1.union a a) a);
    check "excluded middle" true (Cell1.is_empty (Cell1.inter a (Cell1.compl a)));
    check "double complement" true (Cell1.equal (Cell1.compl (Cell1.compl a)) a)
  done

let test_cell1_measure_endpoints () =
  let s =
    Cell1.union
      (Cell1.closed_interval Q.zero Q.one)
      (Cell1.union (Cell1.open_interval (q 2) (q 4)) (Cell1.point (q 6)))
  in
  check "measure" true (Cell1.measure s = Some (q 3));
  check "measure ray" true (Cell1.measure (Cell1.ray_ge Q.zero) = None);
  check "clamped" true (Q.equal (Cell1.measure_clamped Q.zero (q 3) s) (q 2));
  check "endpoints" true (Cell1.endpoints s = [ Q.zero; Q.one; q 2; q 4; q 6 ]);
  check_int "components" 3 (Cell1.component_count s);
  check "bounded" true (Cell1.is_bounded s);
  check "unbounded" false (Cell1.is_bounded (Cell1.ray_lt Q.zero))

let test_cell1_adjacency_merge () =
  let m =
    Cell1.union
      (Cell1.half_open_right Q.zero Q.one)
      (Cell1.union (Cell1.point Q.one) (Cell1.half_open_left Q.one Q.two))
  in
  check_int "merged" 1 (Cell1.component_count m);
  check "merged endpoints" true (Cell1.endpoints m = [ Q.zero; Q.two ]);
  (* two open intervals sharing an excluded endpoint must NOT merge *)
  let n = Cell1.union (Cell1.open_interval Q.zero Q.one) (Cell1.open_interval Q.one Q.two) in
  check_int "not merged" 2 (Cell1.component_count n)

let test_cell1_constraints_roundtrip () =
  for _ = 1 to 200 do
    let conj = rand_conj [ x ] (1 + Random.State.int rng 3) in
    let cell = Cell1.of_constraints x conj in
    List.iter
      (fun v ->
        check "of_constraints pointwise"
          (Linformula.conj_holds conj (Var.Map.singleton x v))
          (Cell1.mem cell v))
      samples_q;
    (* roundtrip through to_dnf *)
    let back = Cell1.of_dnf x (Cell1.to_dnf x cell) in
    check "to_dnf roundtrip" true (Cell1.equal cell back)
  done

let test_cell1_sample_points () =
  for _ = 1 to 100 do
    let c = rand_cell () in
    List.iter (fun v -> check "sample in set" true (Cell1.mem c v)) (Cell1.sample_points c)
  done

(* ------------------------------------------------------------------ *)
(* Semilinear                                                          *)
(* ------------------------------------------------------------------ *)

let dv2 = Semilinear.default_vars 2

let rand_semilinear () =
  Semilinear.make dv2
    (List.init (1 + Random.State.int rng 3) (fun _ -> rand_conj (Array.to_list dv2) (2 + Random.State.int rng 4)))

let pts2 = List.map (fun (a, b) -> [| a; b |]) grid2

let test_semilinear_ops_pointwise () =
  for _ = 1 to 80 do
    let a = rand_semilinear () and b = rand_semilinear () in
    let u = Semilinear.union a b
    and i = Semilinear.inter a b
    and c = Semilinear.compl a
    and d = Semilinear.diff a b in
    List.iter
      (fun p ->
        check "union" (Semilinear.mem a p || Semilinear.mem b p) (Semilinear.mem u p);
        check "inter" (Semilinear.mem a p && Semilinear.mem b p) (Semilinear.mem i p);
        check "compl" (not (Semilinear.mem a p)) (Semilinear.mem c p);
        check "diff" (Semilinear.mem a p && not (Semilinear.mem b p)) (Semilinear.mem d p))
      pts2
  done

let test_semilinear_project_section () =
  for _ = 1 to 40 do
    let a = rand_semilinear () in
    let proj = Semilinear.project_last a in
    List.iter
      (fun xv ->
        let cell = Semilinear.last_axis_cell a [| xv |] in
        let in_proj = Semilinear.mem proj [| xv |] in
        check "projection = nonempty section" (not (Cell1.is_empty cell)) in_proj)
      (List.init 13 (fun i -> qq (i - 6) 2))
  done

let test_semilinear_enumerate_finite () =
  let point p =
    List.mapi (fun i c -> Linconstr.eq (Linexpr.var dv2.(i)) (Linexpr.const c)) p
  in
  let s = Semilinear.make dv2 [ point [ q 1; q 2 ]; point [ q 3; q 4 ]; point [ q 1; q 2 ] ] in
  (match Semilinear.enumerate_finite s with
  | Some pts -> check_int "two points" 2 (List.length pts)
  | None -> Alcotest.fail "finite");
  let tri =
    Semilinear.of_conjunction dv2
      [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
        Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero;
        Linconstr.le (Linexpr.add (Linexpr.var dv2.(0)) (Linexpr.var dv2.(1))) (Linexpr.const Q.one) ]
  in
  check "triangle infinite" true (Semilinear.enumerate_finite tri = None);
  check "empty finite" true (Semilinear.enumerate_finite (Semilinear.empty 2) = Some [])

let test_semilinear_bounding () =
  let tri =
    Semilinear.of_conjunction dv2
      [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
        Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero;
        Linconstr.le (Linexpr.add (Linexpr.var dv2.(0)) (Linexpr.var dv2.(1))) (Linexpr.const Q.one) ]
  in
  (match Semilinear.bounding_box tri with
  | Some bb ->
      check "bb x" true (Q.is_zero (fst bb.(0)) && Q.equal (snd bb.(0)) Q.one);
      check "bb y" true (Q.is_zero (fst bb.(1)) && Q.equal (snd bb.(1)) Q.one)
  | None -> Alcotest.fail "bounded");
  check "halfplane unbounded" false
    (Semilinear.is_bounded (Semilinear.halfspace dv2 (Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero)));
  check "clamped subset of cube" true
    (Semilinear.subset (Semilinear.clamp_unit tri) (Semilinear.unit_cube 2))

let test_semilinear_of_formula () =
  (* the shadow of the triangle under a quantifier *)
  let f =
    Formula.Exists
      ( dv2.(1),
        Formula.conj
          [ Formula.Atom (Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero);
            Formula.Atom (Linconstr.ge (Linexpr.var dv2.(1)) Linexpr.zero);
            Formula.Atom
              (Linconstr.le
                 (Linexpr.add (Linexpr.var dv2.(0)) (Linexpr.var dv2.(1)))
                 (Linexpr.const Q.one)) ] )
  in
  let s = Semilinear.of_formula [| dv2.(0) |] f in
  check "shadow" true
    (Semilinear.equal s
       (Semilinear.of_conjunction [| dv2.(0) |]
          [ Linconstr.ge (Linexpr.var dv2.(0)) Linexpr.zero;
            Linconstr.le (Linexpr.var dv2.(0)) (Linexpr.const Q.one) ]))

(* ------------------------------------------------------------------ *)
(* DNF coalescing                                                      *)
(* ------------------------------------------------------------------ *)

let box01 v = [ Linconstr.ge (Linexpr.var v) Linexpr.zero;
                Linconstr.le (Linexpr.var v) (Linexpr.const Q.one) ]

let test_coalesce_dnf () =
  let split lop rop c =
    let e = Linexpr.sub ex (Linexpr.const c) in
    ( box01 x @ [ Linconstr.make e lop ],
      box01 x @ [ Linconstr.make (Linexpr.neg e) rop ] )
  in
  (* [0,1] split at 1/2: the non-strict halves glue back to the box *)
  let l, r = split Linconstr.Le Linconstr.Le (qq 1 2) in
  let merged = Semilinear.coalesce_dnf [ l; r ] in
  check_int "le/le merges" 1 (List.length merged);
  check "merged is the box" true
    (List.for_all
       (fun pt ->
         let env = env2 pt in
         Bool.equal
           (Linformula.dnf_holds merged env)
           (Linformula.dnf_holds [ l; r ] env))
       grid2);
  (* one strict side still covers the boundary from the other piece *)
  let l, r = split Linconstr.Le Linconstr.Lt (qq 1 2) in
  check_int "le/lt merges" 1 (List.length (Semilinear.coalesce_dnf [ l; r ]));
  (* both strict: the cut point itself would be lost — no merge *)
  let l, r = split Linconstr.Lt Linconstr.Lt (qq 1 2) in
  check_int "lt/lt refused" 2 (List.length (Semilinear.coalesce_dnf [ l; r ]));
  (* quadrant tiling of the unit square: the x-adjacent halves merge in
     the first pass, the resulting y-adjacent strips in the second — the
     fixpoint loop, ticking db.update.coalesced once per merge *)
  let module T = Cqa_telemetry.Telemetry in
  let cube = box01 x @ box01 y in
  let xle = Linconstr.le ex (Linexpr.const (qq 1 2)) in
  let xge = Linconstr.ge ex (Linexpr.const (qq 1 2)) in
  let yle = Linconstr.le ey (Linexpr.const (qq 1 2)) in
  let yge = Linconstr.ge ey (Linexpr.const (qq 1 2)) in
  let quadrants =
    [ cube @ [ xle; yle ]; cube @ [ xge; yle ];
      cube @ [ xle; yge ]; cube @ [ xge; yge ] ]
  in
  T.enable ();
  Fun.protect ~finally:T.disable (fun () ->
      let coalesced () =
        match List.assoc_opt "db.update.coalesced" (T.snapshot ()).T.counters
        with Some v -> v | None -> 0
      in
      let before = coalesced () in
      check_int "quadrants glue to the square" 1
        (List.length (Semilinear.coalesce_dnf quadrants));
      check "coalesced counter ticked" true (coalesced () >= before + 3));
  (* random splits: coalescing never changes the set pointwise *)
  for _ = 1 to 60 do
    let conj = rand_conj [ x; y ] (1 + Random.State.int rng 3) in
    let e = rand_expr [ x; y ] in
    let d =
      [ conj @ [ Linconstr.make e Linconstr.Le ];
        conj @ [ Linconstr.make (Linexpr.neg e) Linconstr.Le ] ]
    in
    let c = Semilinear.coalesce_dnf d in
    List.iter
      (fun pt ->
        let env = env2 pt in
        check "coalesce pointwise"
          (Linformula.dnf_holds d env)
          (Linformula.dnf_holds c env))
      grid2
  done

let test_remove_region_coalesces () =
  (* removing and re-inserting the same band must not grow the
     representation: remove_region's coalescing keeps the tiling flat *)
  let s = Semilinear.unit_cube 2 in
  let band = Semilinear.box [| (qq 1 4, qq 1 2); (Q.zero, Q.one) |] in
  let cur = ref s in
  for _ = 1 to 5 do
    cur := (Semilinear.remove_region !cur band).Semilinear.updated;
    check "remove = diff" true (Semilinear.equal !cur (Semilinear.diff s band));
    check "no blowup" true (Semilinear.disjunct_count !cur <= 4);
    cur := (Semilinear.insert_region !cur band).Semilinear.updated;
    check "reinsert restores" true (Semilinear.equal !cur s)
  done

(* ------------------------------------------------------------------ *)
(* Active-domain evaluation                                            *)
(* ------------------------------------------------------------------ *)

let test_active_eval () =
  let schema = Schema.of_list [ ("U", 1) ] in
  let inst =
    Instance.of_list schema
      [ ("U", [ [| q 1 |]; [| q 3 |]; [| q 5 |] ]) ]
  in
  (* active quantification ranges over {1, 3, 5} *)
  let f =
    Formula.Exists_adom
      (x, Formula.And (Formula.Rel ("U", [ x ]), Formula.Atom (Linconstr.gt ex (Linexpr.const (q 4)))))
  in
  check "adom exists" true (Active_eval.holds inst Var.Map.empty f);
  let g =
    Formula.Forall_adom
      (x, Formula.implies (Formula.Rel ("U", [ x ])) (Formula.Atom (Linconstr.gt ex Linexpr.zero)))
  in
  check "adom forall" true (Active_eval.holds inst Var.Map.empty g);
  (* natural quantification is decided symbolically: exists z between 1, 3 *)
  let h =
    Formula.Exists
      ( z,
        Formula.And
          ( Formula.Atom (Linconstr.gt (Linexpr.var z) (Linexpr.const (q 1))),
            Formula.Atom (Linconstr.lt (Linexpr.var z) (Linexpr.const (q 3))) ) )
  in
  check "natural exists" true (Active_eval.holds inst Var.Map.empty h);
  (* active-semantics output *)
  let big = Formula.And (Formula.Rel ("U", [ x ]), Formula.Atom (Linconstr.gt ex (Linexpr.const (q 2)))) in
  check_int "output" 2 (List.length (Active_eval.output inst [ x ] big));
  (* the Section 4.1 aggregate *)
  (match Active_eval.avg inst x (Formula.Rel ("U", [ x ])) with
  | Some v -> check "avg" true (Q.equal v (q 3))
  | None -> Alcotest.fail "nonempty");
  check "avg empty" true
    (Active_eval.avg inst x (Formula.And (Formula.Rel ("U", [ x ]), Formula.Atom (Linconstr.gt ex (Linexpr.const (q 9))))) = None)


(* ------------------------------------------------------------------ *)
(* Hash-consing and redundancy pruning                                  *)
(* ------------------------------------------------------------------ *)

let test_interning () =
  for _ = 1 to 200 do
    let c = q (Random.State.int rng 11 - 5) in
    let coefs =
      List.filter_map
        (fun v ->
          let k = Random.State.int rng 7 - 3 in
          if k = 0 then None else Some (q k, v))
        [ x; y; z ]
    in
    let e1 = Linexpr.of_list c coefs in
    let e2 = Linexpr.of_list c coefs in
    check "expr interned" true (e1 == e2);
    check "expr equal" true (Linexpr.equal e1 e2);
    check_int "expr compare" 0 (Linexpr.compare e1 e2);
    check_int "expr hash" (Linexpr.hash e1) (Linexpr.hash e2);
    check_int "expr tag" (Linexpr.tag e1) (Linexpr.tag e2);
    let a1 = Linconstr.make e1 Linconstr.Le in
    let a2 = Linconstr.make e2 Linconstr.Le in
    check "constr interned" true (a1 == a2);
    check "constr equal" true (Linconstr.equal a1 a2);
    check_int "constr compare" 0 (Linconstr.compare a1 a2);
    check_int "constr tag" (Linconstr.tag a1) (Linconstr.tag a2);
    (* interning respects the algebra: a rebuilt sum lands on the same node *)
    let sum = Linexpr.add e1 (Linexpr.var x) in
    let sum' = Linexpr.add (Linexpr.var x) e2 in
    check "add interned" true (sum == sum');
    (* distinct ops stay distinct *)
    let b = Linconstr.make e1 Linconstr.Lt in
    check "op distinguishes" false (Linconstr.equal a1 b)
  done;
  (* observational equality: fresh vs interned evaluate identically *)
  for _ = 1 to 100 do
    let a = rand_atom [ x; y ] in
    let a' = Linconstr.make (Linconstr.expr a) (Linconstr.op a) in
    check "renormalization is stable" true (a == a');
    List.iter
      (fun (vx, vy) ->
        let env = Var.Map.(add x vx (add y vy empty)) in
        check "holds agree" (Linconstr.holds a env) (Linconstr.holds a' env))
      (List.filteri (fun i _ -> i mod 13 = 0) grid2)
  done

(* The same per-atom sweep as [prune_redundant], with the simplex as the
   entailment oracle: an independent reference for the FM-based pruner. *)
let prune_redundant_simplex conj =
  let entails ctx a =
    List.for_all
      (fun n -> not (Fourier_motzkin.satisfiable_conj_simplex (n :: ctx)))
      (Linconstr.negate a)
  in
  let rec go kept = function
    | [] -> List.rev kept
    | a :: rest ->
        if entails (List.rev_append kept rest) a then go kept rest
        else go (a :: kept) rest
  in
  go [] conj

let test_prune_simplex_agrees () =
  for _ = 1 to 60 do
    let conj = rand_conj [ x; y; z ] (2 + Random.State.int rng 6) in
    if Fourier_motzkin.satisfiable_conj conj then begin
      let p_fm = Fourier_motzkin.prune_redundant conj in
      let p_sx = prune_redundant_simplex conj in
      check_int "same length" (List.length p_fm) (List.length p_sx);
      List.iter2
        (fun a b -> check "same atoms kept" true (Linconstr.equal a b))
        p_fm p_sx;
      (* the pruned conjunction is still equivalent pointwise *)
      List.iter
        (fun (vx, vy) ->
          let env = Var.Map.(add x vx (add y vy (add z Q.zero empty))) in
          let holds c = List.for_all (fun a -> Linconstr.holds a env) c in
          check "pointwise preserved" (holds conj) (holds p_sx))
        (List.filteri (fun i _ -> i mod 7 = 0) grid2);
      check "satisfiability preserved" true
        (Fourier_motzkin.satisfiable_conj p_sx)
    end
  done

let test_sat_memo () =
  Fourier_motzkin.clear_qe_cache ();
  check_int "sat cache cleared" 0 (Fourier_motzkin.sat_cache_size ());
  let verdicts = ref [] in
  for _ = 1 to 30 do
    let conj = rand_conj [ x; y ] (1 + Random.State.int rng 4) in
    verdicts := (conj, Fourier_motzkin.satisfiable_conj conj) :: !verdicts
  done;
  check "sat cache populated" true (Fourier_motzkin.sat_cache_size () > 0);
  (* warm verdicts agree with the recorded cold ones, in any atom order *)
  List.iter
    (fun (conj, v) ->
      check "warm verdict" v (Fourier_motzkin.satisfiable_conj conj);
      check "order-independent" v
        (Fourier_motzkin.satisfiable_conj (List.rev conj)))
    !verdicts;
  Fourier_motzkin.clear_qe_cache ();
  check_int "clear drops sat memo" 0 (Fourier_motzkin.sat_cache_size ())

let () =
  Alcotest.run "cqa_linear"
    [ ( "linexpr",
        [ Alcotest.test_case "ops" `Quick test_linexpr_ops;
          Alcotest.test_case "normalization" `Quick test_linconstr_normalization;
          Alcotest.test_case "negate" `Quick test_linconstr_negate ] );
      ( "linformula",
        [ Alcotest.test_case "dnf equivalence" `Quick test_dnf_equivalence;
          Alcotest.test_case "simplify conjunction" `Quick test_simplify_conjunction ] );
      ( "fourier-motzkin",
        [ Alcotest.test_case "known eliminations" `Quick test_fm_known;
          Alcotest.test_case "eliminate sound" `Quick test_fm_eliminate_sound;
          Alcotest.test_case "sat kernels agree" `Quick test_fm_sat_kernels_agree;
          Alcotest.test_case "sample point" `Quick test_fm_sample_point;
          Alcotest.test_case "complement" `Quick test_fm_complement;
          Alcotest.test_case "entails prune" `Quick test_fm_entails_prune;
          Alcotest.test_case "tighten parallel" `Quick test_tighten_parallel;
          Alcotest.test_case "qe pointwise" `Quick test_qe_pointwise;
          Alcotest.test_case "qe memo agrees with cold" `Quick
            test_qe_memo_agrees_with_cold;
          Alcotest.test_case "qe memo eviction" `Quick test_qe_memo_eviction ] );
      ( "hash-consing",
        [ Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "simplex prune agrees" `Quick test_prune_simplex_agrees;
          Alcotest.test_case "sat memo" `Quick test_sat_memo ] );
      ( "simplex",
        [ Alcotest.test_case "known LPs" `Quick test_simplex_known;
          Alcotest.test_case "warm basis reuse" `Quick test_simplex_warm_basis;
          Alcotest.test_case "feasible_strict warm" `Quick
            test_feasible_strict_warm;
          Alcotest.test_case "vs FM random" `Quick test_simplex_vs_fm_random ] );
      ( "cell1",
        [ Alcotest.test_case "boolean algebra" `Quick test_cell1_boolean_algebra;
          Alcotest.test_case "measure endpoints" `Quick test_cell1_measure_endpoints;
          Alcotest.test_case "adjacency merge" `Quick test_cell1_adjacency_merge;
          Alcotest.test_case "constraints roundtrip" `Quick test_cell1_constraints_roundtrip;
          Alcotest.test_case "sample points" `Quick test_cell1_sample_points ] );
      ( "semilinear",
        [ Alcotest.test_case "ops pointwise" `Quick test_semilinear_ops_pointwise;
          Alcotest.test_case "project section" `Quick test_semilinear_project_section;
          Alcotest.test_case "enumerate finite" `Quick test_semilinear_enumerate_finite;
          Alcotest.test_case "bounding" `Quick test_semilinear_bounding;
          Alcotest.test_case "of_formula" `Quick test_semilinear_of_formula;
          Alcotest.test_case "coalesce dnf" `Quick test_coalesce_dnf;
          Alcotest.test_case "remove coalesces" `Quick
            test_remove_region_coalesces ] );
      ("active-eval", [ Alcotest.test_case "fo_act" `Quick test_active_eval ]) ]
