open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_geom
open Cqa_vc
open Cqa_core
open Cqa_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int
let qq = Q.of_ints

let test_rational_grid () =
  let prng = Prng.create 1 in
  for _ = 1 to 500 do
    let v = Generators.rational prng ~den:4 ~lo:(-2) ~hi:3 in
    check "in range" true (Q.leq (q (-2)) v && Q.leq v (q 3));
    check "on grid" true (Bigint.to_int_opt (Q.den v) <> None)
  done

let test_finite_set () =
  let prng = Prng.create 2 in
  let s = Generators.finite_set prng ~size:20 ~lo:0 ~hi:5 in
  check_int "size" 20 (List.length s);
  check_int "distinct" 20 (List.length (List.sort_uniq Q.compare s));
  let rec sorted = function
    | a :: (b :: _ as rest) -> Q.lt a b && sorted rest
    | _ -> true
  in
  check "sorted" true (sorted s)

let test_semilinear_generator () =
  let prng = Prng.create 3 in
  for _ = 1 to 20 do
    let s = Generators.semilinear prng ~dim:2 ~disjuncts:3 in
    check "bounded" true (Semilinear.is_bounded s);
    let v = Volume_exact.volume s in
    check "volume nonneg" true (Q.sign v >= 0)
  done

let test_convex_polygon_generator () =
  let prng = Prng.create 4 in
  let produced = ref 0 in
  for _ = 1 to 30 do
    match Generators.convex_polygon prng ~points:10 with
    | Some poly ->
        incr produced;
        check "convex" true (Polygon.is_convex poly);
        let s = Generators.polygon_to_semilinear poly in
        List.iter
          (fun pt -> check "vertices inside" true (Semilinear.mem s pt))
          (Polygon.vertices poly);
        check "centroid inside" true (Semilinear.mem s (Polygon.centroid poly));
        check "area agrees" true
          (Q.equal (Volume_exact.volume s) (Polygon.area poly))
    | None -> ()
  done;
  check "mostly nondegenerate" true (!produced > 20)

let test_disk_generator () =
  let prng = Prng.create 5 in
  for _ = 1 to 20 do
    let d = Generators.random_disk prng in
    let s = Prng.create 99 in
    for _ = 1 to 100 do
      let pt = [| Prng.q_in s (q (-1)) (q 2); Prng.q_in s (q (-1)) (q 2) |] in
      if Cqa_poly.Semialg.mem d pt then
        check "inside unit square" true
          (Array.for_all (fun c -> Q.leq Q.zero c && Q.leq c Q.one) pt)
    done
  done

let test_section3_example () =
  let points = [ qq 1 10; qq 3 10; qq 7 10; qq 9 10 ] in
  let db = Paper_examples.section3_db points in
  let f, params, ys = Paper_examples.section3_query () in
  let a = qq 1 10 and b = qq 7 10 in
  let env =
    Var.Map.add (List.nth params 0) a (Var.Map.singleton (List.nth params 1) b)
  in
  let yarr = Array.of_list ys in
  let lin = Eval.reduce_linear db env f in
  let s = Semilinear.of_formula yarr lin in
  let vol = Volume_exact.volume_clamped s in
  check "paper closed form" true
    (Q.equal vol (Paper_examples.section3_exact_volume a b));
  let env' =
    Var.Map.add (List.nth params 0) Q.half (Var.Map.singleton (List.nth params 1) b)
  in
  let s' = Semilinear.of_formula yarr (Eval.reduce_linear db env' f) in
  check "empty off U" true (Q.is_zero (Volume_exact.volume_clamped s'))

let test_arctan_example () =
  let x = Q.one in
  let set = Paper_examples.arctan_epigraph x in
  let prng = Prng.create 17 in
  let est =
    Approx_volume.estimate_random ~prng ~dim:(Cqa_poly.Semialg.dim set) ~n:6000
      (Cqa_poly.Semialg.mem set)
  in
  check "atan 1" true
    (abs_float (Q.to_float est -. Paper_examples.arctan_volume_float x) < 0.03);
  let sec = Cqa_poly.Semialg.last_axis_section set [| Q.half |] in
  match Cqa_poly.Semialg.Section.measure_approx ~eps:(qq 1 10000) sec with
  | Some m ->
      check "section height" true
        (abs_float (Q.to_float m -. (1.0 /. 1.25)) < 0.001)
  | None -> Alcotest.fail "finite section"

let test_polygon_dbs () =
  let term = Compile.polygon_area_term ~rel:"P" in
  check "triangle db" true
    (Q.equal (Eval.eval_term (Paper_examples.triangle_db ()) Var.Map.empty term) (q 2));
  check "rectangle db" true
    (Q.equal (Eval.eval_term (Paper_examples.rectangle_db ()) Var.Map.empty term) (q 6));
  check "pentagon db" true
    (Q.equal (Eval.eval_term (Paper_examples.pentagon_db ()) Var.Map.empty term) (qq 11 2))

let test_prop5_instance () =
  let inst, rel = Paper_examples.prop5_instance ~bits:4 in
  let ground = List.map (fun i -> [| q i |]) [ 0; 1; 2; 3 ] in
  let params = List.init 16 (fun a -> q a) in
  let dim =
    Cqa_vc.Definable_family.empirical_vc_dim ~params ~ground ~mem:(fun a pt ->
        Instance.mem inst rel [| a; pt.(0) |])
  in
  check_int "vc = bits" 4 dim;
  check "vc >= log2 |D|" true
    (float_of_int dim >= (log (float_of_int (Instance.size inst)) /. log 2.) -. 1.0)

let () =
  Alcotest.run "cqa_workload"
    [ ( "generators",
        [ Alcotest.test_case "rational grid" `Quick test_rational_grid;
          Alcotest.test_case "finite set" `Quick test_finite_set;
          Alcotest.test_case "semilinear" `Quick test_semilinear_generator;
          Alcotest.test_case "convex polygon" `Quick test_convex_polygon_generator;
          Alcotest.test_case "disk" `Quick test_disk_generator ] );
      ( "paper-examples",
        [ Alcotest.test_case "section 3" `Quick test_section3_example;
          Alcotest.test_case "arctan" `Quick test_arctan_example;
          Alcotest.test_case "polygon dbs" `Slow test_polygon_dbs;
          Alcotest.test_case "prop 5" `Quick test_prop5_instance ] ) ]
