(* End-to-end scenarios mirroring the experiment suite (DESIGN.md, E1-E12):
   each checks the *shape* the paper predicts on small instances. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_vc
open Cqa_core
open Cqa_workload

let check = Alcotest.(check bool)
let q = Q.of_int
let qq = Q.of_ints

(* E1: the VC-based approximation formula sizes explode *)
let test_e1_blowup_shape () =
  let sizes =
    List.map
      (fun eps ->
        (Bounds.km_formula_size ~eps ~delta:0.25 ~vc_dim:4 ~m:2 ~atoms_in_phi:20).Bounds.atoms)
      [ 0.5; 0.1; 0.02 ]
  in
  (match sizes with
  | [ a; b; c ] ->
      check "monotone blowup" true (a < b && b < c);
      check "infeasible at 1/10" true (b > 1e8)
  | _ -> assert false)

(* E2: EF-game argument: for every rank k there are instances with large
   cardinality gap that no rank-k sentence separates *)
let test_e2_ef () =
  for k = 1 to 2 do
    match Ef_game.separating_counterexample ~rounds:k ~c1:(q 3) ~c2:(q 3) with
    | Some (a, b) -> check "duplicator wins" true (Ef_game.duplicator_wins k a b)
    | None -> Alcotest.fail "counterexample expected"
  done

(* E3: the trivial approximation is always within 1/2, exact on 0/1 *)
let test_e3_trivial () =
  let prng = Prng.create 42 in
  for _ = 1 to 25 do
    let s = Generators.semilinear prng ~dim:2 ~disjuncts:2 in
    let t = Trivial_approx.trivial_approx s in
    let v = Volume_exact.volume_clamped s in
    check "within 1/2" true (Q.leq (Q.abs (Q.sub t v)) Q.half);
    if Q.is_zero v then check "exact zero" true (Q.is_zero t);
    if Q.equal v Q.one then check "exact one" true (Q.equal t Q.one)
  done

(* E4: translated circuits cannot separate cardinalities *)
let test_e4_circuits () =
  let x = Var.of_string "x" and y = Var.of_string "y" in
  let sentences =
    [ Formula.Exists (x, Formula.Atom (Circuit.Pred (0, x)));
      Formula.Forall (x, Formula.Atom (Circuit.Pred (0, x)));
      Formula.Exists
        ( x,
          Formula.Exists
            ( y,
              Formula.conj
                [ Formula.Atom (Circuit.Lt (x, y));
                  Formula.Atom (Circuit.Pred (0, x));
                  Formula.Atom (Circuit.Pred (0, y)) ] ) ) ]
  in
  let n = 10 in
  List.iter
    (fun s ->
      let c = Circuit.of_sentence ~preds:1 ~n s in
      check "no candidate separates" false
        (Circuit.separates_cardinalities ~c1:(qq 1 3) ~c2:(qq 2 3) ~n c))
    sentences

(* E5: Theorem 3 three ways: sweep = inclusion-exclusion = grid (when
   variable independent), and they integrate the paper's closed form *)
let test_e5_exact_volume_agreement () =
  let prng = Prng.create 7 in
  for _ = 1 to 15 do
    let s = Generators.semilinear prng ~dim:2 ~disjuncts:2 in
    let a = Volume_exact.volume_sweep s in
    let b = Volume_exact.volume_incl_excl s in
    check "sweep = ie" true (Q.equal a b)
  done;
  for _ = 1 to 6 do
    let s = Generators.semilinear prng ~dim:3 ~disjuncts:2 in
    check "3d" true
      (Q.equal (Volume_exact.volume_sweep s) (Volume_exact.volume_incl_excl s))
  done

(* E6: the FO+POLY+SUM polygon program against computational geometry *)
let test_e6_polygon_program () =
  let prng = Prng.create 13 in
  let term = Compile.polygon_area_term ~rel:"P" in
  let tried = ref 0 in
  while !tried < 3 do
    match Generators.convex_polygon prng ~points:4 with
    | Some poly when Cqa_geom.Polygon.vertex_count poly <= 4 ->
        incr tried;
        let s = Generators.polygon_to_semilinear poly in
        let db =
          Db.of_list Paper_examples.polygon_schema [ ("P", Db.Semilin s) ]
        in
        let got = Eval.eval_term db Var.Map.empty term in
        check "program = shoelace" true (Q.equal got (Cqa_geom.Polygon.area poly))
    | _ -> ()
  done

(* E7: Theorem 4 shape: one shared sample approximates a whole family *)
let test_e7_family () =
  let prng = Prng.create 3 in
  let db = Paper_examples.triangle_db () in
  let dv = Semilinear.default_vars 2 in
  let m = Bounds.blumer_sample_size ~eps:0.08 ~delta:0.2 ~vc_dim:2 in
  let fam =
    Volume_approx.approx_query_family ~prng ~m db ~xvars:[| dv.(0) |]
      ~yvars:[| dv.(1) |]
      (Ast.Rel ("P", [ dv.(0); dv.(1) ]))
      ~params:(List.init 9 (fun i -> [| qq i 4 |]))
  in
  let worst =
    List.fold_left
      (fun acc (a, est) ->
        let truth = min 1.0 (max 0.0 (2.0 -. Q.to_float a.(0))) in
        max acc (abs_float (Q.to_float est -. truth)))
      0.0 fam
  in
  check "sup error within eps" true (worst < 0.08)

(* E8/E9: VC dimension growth of definable families *)
let test_e8_e9_vc_growth () =
  let dims =
    List.map
      (fun bits ->
        let inst, rel = Paper_examples.prop5_instance ~bits in
        let ground = List.map (fun i -> [| q i |]) (List.init bits Fun.id) in
        let params = List.init (1 lsl bits) (fun a -> q a) in
        let d =
          Definable_family.empirical_vc_dim ~params ~ground ~mem:(fun a pt ->
              Instance.mem inst rel [| a; pt.(0) |])
        in
        (bits, Instance.size inst, d))
      [ 2; 3; 4 ]
  in
  List.iter
    (fun (bits, size, d) ->
      check "lower bound log |D|" true
        (float_of_int d >= (log (float_of_int size) /. log 2.) -. 1.0);
      check "matches bits" true (d = bits))
    dims

(* E11: mu is closed but useless for volume *)
let test_e11_mu () =
  let prng = Prng.create 23 in
  for _ = 1 to 10 do
    let s = Generators.semilinear prng ~dim:2 ~disjuncts:2 in
    check "bounded implies mu zero" true (Q.is_zero (Mu.mu s))
  done

(* E12: variable independence is restrictive *)
let test_e12_varindep () =
  let prng = Prng.create 29 in
  let vi = ref 0 and total = 30 in
  for _ = 1 to total do
    let s = Generators.semilinear prng ~dim:2 ~disjuncts:2 in
    if Var_indep.is_variable_independent s then begin
      incr vi;
      check "vi volume agrees" true
        (Q.equal (Var_indep.grid_volume s) (Volume_exact.volume s))
    end
  done;
  (* random polytopes with slanted halfspaces are rarely variable
     independent *)
  check "restrictive" true (!vi < total)

let () =
  Alcotest.run "cqa_integration"
    [ ( "experiments",
        [ Alcotest.test_case "E1 blowup" `Quick test_e1_blowup_shape;
          Alcotest.test_case "E2 ef games" `Quick test_e2_ef;
          Alcotest.test_case "E3 trivial approx" `Quick test_e3_trivial;
          Alcotest.test_case "E4 circuits" `Quick test_e4_circuits;
          Alcotest.test_case "E5 exact volume" `Quick test_e5_exact_volume_agreement;
          Alcotest.test_case "E6 polygon program" `Slow test_e6_polygon_program;
          Alcotest.test_case "E7 family approx" `Quick test_e7_family;
          Alcotest.test_case "E8 E9 vc growth" `Quick test_e8_e9_vc_growth;
          Alcotest.test_case "E11 mu" `Quick test_e11_mu;
          Alcotest.test_case "E12 varindep" `Quick test_e12_varindep ] ) ]
