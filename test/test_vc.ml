open Cqa_arith
open Cqa_vc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int
let qq = Q.of_ints

(* ------------------------------------------------------------------ *)
(* Prng / Halton                                                       *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.int64 a = Prng.int64 b)
  done;
  let c = Prng.create 43 in
  check "different seed differs" false
    (List.init 10 (fun _ -> Prng.int64 a) = List.init 10 (fun _ -> Prng.int64 c))

let test_prng_ranges () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    check "int range" true (v >= 0 && v < 10);
    let f = Prng.float g in
    check "float range" true (f >= 0.0 && f < 1.0);
    let r = Prng.q_unit g in
    check "q range" true (Q.leq Q.zero r && Q.lt r Q.one);
    let s = Prng.q_in g (q 2) (q 5) in
    check "q_in range" true (Q.leq (q 2) s && Q.lt s (q 5))
  done

let test_halton () =
  check "rad inv 1 base 2" true (Q.equal (Halton.radical_inverse ~base:2 1) Q.half);
  check "rad inv 2 base 2" true (Q.equal (Halton.radical_inverse ~base:2 2) (qq 1 4));
  check "rad inv 3 base 2" true (Q.equal (Halton.radical_inverse ~base:2 3) (qq 3 4));
  check "rad inv 1 base 3" true (Q.equal (Halton.radical_inverse ~base:3 1) (qq 1 3));
  let pts = Halton.points ~dim:2 100 in
  check_int "count" 100 (List.length pts);
  List.iter
    (fun p ->
      check "in unit square" true
        (Array.for_all (fun c -> Q.leq Q.zero c && Q.lt c Q.one) p))
    pts;
  (* all distinct *)
  check_int "distinct" 100 (List.length (List.sort_uniq compare pts))

(* ------------------------------------------------------------------ *)
(* Setsystem                                                           *)
(* ------------------------------------------------------------------ *)

let powerset_system n =
  Setsystem.of_mem ~ground_size:n ~set_count:(1 lsl n) (fun j i ->
      (j lsr i) land 1 = 1)

let test_setsystem_shatters () =
  let s = powerset_system 3 in
  check "shatters all" true (Setsystem.shatters s [ 0; 1; 2 ]);
  check_int "vc powerset" 3 (Setsystem.vc_dimension s);
  (* family of singletons: VC dim 1 *)
  let singles = Setsystem.of_mem ~ground_size:4 ~set_count:4 (fun j i -> i = j) in
  check_int "vc singletons" 1 (Setsystem.vc_dimension singles);
  check "no pair shattered" false (Setsystem.shatters singles [ 0; 1 ])

let test_setsystem_thresholds () =
  (* thresholds {x <= t}: classic VC dimension 1 *)
  let s = Setsystem.of_mem ~ground_size:6 ~set_count:7 (fun j i -> i < j) in
  check_int "vc thresholds" 1 (Setsystem.vc_dimension s)

let test_setsystem_intervals () =
  (* intervals [a, b] on 6 points: VC dimension 2 *)
  let intervals =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) (List.init 6 Fun.id))
      (List.init 6 Fun.id)
  in
  let arr = Array.of_list intervals in
  let s =
    Setsystem.of_mem ~ground_size:6 ~set_count:(Array.length arr) (fun j i ->
        let a, b = arr.(j) in
        a <= i && i <= b)
  in
  check_int "vc intervals" 2 (Setsystem.vc_dimension s);
  match Setsystem.shattered_witness s 2 with
  | Some pts -> check "witness shattered" true (Setsystem.shatters s pts)
  | None -> Alcotest.fail "witness expected"

let test_setsystem_edge () =
  let empty = Setsystem.create ~ground_size:3 [] in
  check_int "empty family" (-1) (Setsystem.vc_dimension empty);
  let one = Setsystem.create ~ground_size:3 [ Array.make 3 true ] in
  check_int "single set" 0 (Setsystem.vc_dimension one)

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds_monotone () =
  let m e d v = Bounds.blumer_sample_size ~eps:e ~delta:d ~vc_dim:v in
  check "eps monotone" true (m 0.05 0.1 4 > m 0.1 0.1 4);
  check "delta monotone" true (m 0.1 0.01 4 >= m 0.1 0.1 4);
  check "vc monotone" true (m 0.1 0.1 8 > m 0.1 0.1 4);
  check "positive" true (m 0.4 0.4 1 > 0);
  Alcotest.check_raises "bad eps" (Invalid_argument "Bounds.blumer_sample_size: eps")
    (fun () -> ignore (m 0.0 0.1 1))

let test_bounds_gj () =
  let c = Bounds.goldberg_jerrum_c ~k:2 ~p:1 ~q:2 ~d:1 ~s:6 in
  check "positive" true (c > 0.0);
  check "grows with arity" true
    (Bounds.goldberg_jerrum_c ~k:4 ~p:1 ~q:2 ~d:1 ~s:6 > c);
  check "upper bound grows with db" true
    (Bounds.vc_upper_bound ~c ~db_size:1024 > Bounds.vc_upper_bound ~c ~db_size:4)

let test_km_blowup () =
  (* the Section 3 instantiation: eps = 1/10 must be utterly infeasible *)
  let s = Bounds.km_formula_size ~eps:0.1 ~delta:0.25 ~vc_dim:4 ~m:2 ~atoms_in_phi:20 in
  check "atoms explode" true (s.Bounds.atoms > 1e8);
  check "quantifiers explode" true (s.Bounds.quantifiers > 1e7);
  check "sample size grows" true (s.Bounds.sample_size > 1000);
  (* and it gets worse as eps shrinks *)
  let s2 = Bounds.km_formula_size ~eps:0.01 ~delta:0.25 ~vc_dim:4 ~m:2 ~atoms_in_phi:20 in
  check "smaller eps worse" true (s2.Bounds.atoms > s.Bounds.atoms)

(* ------------------------------------------------------------------ *)
(* Definable_family / Approx_volume                                    *)
(* ------------------------------------------------------------------ *)

let test_definable_family_halfline () =
  (* {y | y <= a} restricted to 5 ground points: VC dim 1 *)
  let ground = List.map (fun i -> [| q i |]) [ 0; 1; 2; 3; 4 ] in
  let params = List.map (fun i -> qq i 1) [ -1; 0; 1; 2; 3; 4; 5 ] in
  let dim =
    Definable_family.empirical_vc_dim ~params ~ground ~mem:(fun a pt ->
        Q.leq pt.(0) a)
  in
  check_int "halflines vc 1" 1 dim

let test_fraction_in () =
  let sample = [| [| Q.zero |]; [| Q.half |]; [| Q.one |]; [| qq 3 4 |] |] in
  check "fraction" true
    (Q.equal (Approx_volume.fraction_in sample (fun p -> Q.lt p.(0) (qq 3 5))) Q.half)

let test_monte_carlo_box () =
  (* estimate the volume of [0, 1/2]^2 = 1/4 *)
  let prng = Prng.create 9 in
  let sample = Approx_volume.points ~dim:2 (Approx_volume.sample_points ~prng ~dim:2 4000) in
  let est =
    Approx_volume.fraction_in sample (fun p ->
        Q.leq p.(0) Q.half && Q.leq p.(1) Q.half)
  in
  check "estimate close" true (abs_float (Q.to_float est -. 0.25) < 0.03);
  (* halton is deterministic and at least as accurate here *)
  let hsample = Approx_volume.halton_sample ~dim:2 2000 in
  let hest =
    Approx_volume.fraction_in hsample (fun p ->
        Q.leq p.(0) Q.half && Q.leq p.(1) Q.half)
  in
  check "halton close" true (abs_float (Q.to_float hest -. 0.25) < 0.01)

let test_estimate_family_shared_sample () =
  let prng = Prng.create 21 in
  let sample = Approx_volume.points ~dim:1 (Approx_volume.sample_points ~prng ~dim:1 3000) in
  let params = [ qq 1 4; Q.half; qq 3 4 ] in
  let results =
    Approx_volume.estimate_family ~sample
      ~mem:(fun a p -> Q.leq p.(0) a)
      params
  in
  List.iter
    (fun (a, est) ->
      check "uniform accuracy" true
        (abs_float (Q.to_float est -. Q.to_float a) < 0.03))
    results

(* ------------------------------------------------------------------ *)
(* Domain-parallel estimation                                          *)
(* ------------------------------------------------------------------ *)

let quarter_box p = Q.lt p.(0) Q.half && Q.lt p.(1) Q.half

let test_estimate_random_seq_matches_fraction_in () =
  (* domains:1 must be the exact sequential path: same PRNG stream, same
     rational *)
  let reference =
    let prng = Prng.create 42 in
    Approx_volume.fraction_in
      (Approx_volume.points ~dim:2 (Approx_volume.sample_points ~prng ~dim:2 1000))
      quarter_box
  in
  let seq =
    Approx_volume.estimate_random ~prng:(Prng.create 42) ~dim:2 ~n:1000
      quarter_box
  in
  check "seq = fraction_in of sample_points" true (Q.equal reference seq)

let test_estimate_random_parallel_deterministic () =
  let run () =
    Approx_volume.estimate_random ~domains:3 ~prng:(Prng.create 42) ~dim:2
      ~n:1000 quarter_box
  in
  let a = run () and b = run () in
  check "fixed seed+domains reproducible" true (Q.equal a b);
  check "estimate close" true (abs_float (Q.to_float a -. 0.25) < 0.05);
  (* chunk sizes must cover the sample exactly: denominator is n *)
  let other =
    Approx_volume.estimate_random ~domains:4 ~prng:(Prng.create 42) ~dim:2
      ~n:1000 quarter_box
  in
  check "other domain count also close" true
    (abs_float (Q.to_float other -. 0.25) < 0.05)

let test_estimate_halton_domain_invariant () =
  (* Halton points are indexed, so every domain count gives the same exact
     rational *)
  let e1 = Approx_volume.estimate_halton ~domains:1 ~dim:2 ~n:500 quarter_box in
  List.iter
    (fun d ->
      let ed = Approx_volume.estimate_halton ~domains:d ~dim:2 ~n:500 quarter_box in
      check (Printf.sprintf "halton dom%d = dom1" d) true (Q.equal e1 ed))
    [ 2; 3; 4; 7 ]

let test_estimate_family_random_parallel () =
  let params = [ qq 1 4; Q.half; qq 3 4 ] in
  let mem a p = Q.leq p.(0) a in
  (* sequential path equals estimate_family over the same drawn sample *)
  let reference =
    let prng = Prng.create 21 in
    Approx_volume.estimate_family
      ~sample:(Approx_volume.points ~dim:1 (Approx_volume.sample_points ~prng ~dim:1 3000))
      ~mem params
  in
  let seq =
    Approx_volume.estimate_family_random ~prng:(Prng.create 21) ~dim:1 ~n:3000
      ~mem params
  in
  check "family seq = shared-sample reference" true
    (List.for_all2
       (fun (a, e) (a', e') -> Q.equal a a' && Q.equal e e')
       reference seq);
  (* parallel: reproducible, uniformly accurate *)
  let par () =
    Approx_volume.estimate_family_random ~domains:3 ~prng:(Prng.create 21)
      ~dim:1 ~n:3000 ~mem params
  in
  let r1 = par () and r2 = par () in
  check "family parallel reproducible" true
    (List.for_all2 (fun (_, e) (_, e') -> Q.equal e e') r1 r2);
  List.iter
    (fun (a, est) ->
      check "family parallel uniform accuracy" true
        (abs_float (Q.to_float est -. Q.to_float a) < 0.04))
    r1

(* The draw order is part of the contract: a retained sample, a one-shot
   estimate and every earlier run with the same (seed, n, domains) must
   see the same points.  These rationals pin the order of generator
   splits and chunk sizes; the last point's numerators sit at
   [999*dim ..] of the flat sample. *)
let test_draw_order_pinned () =
  let q = Q.of_string in
  List.iter
    (fun (domains, random, family, last) ->
      let est =
        Approx_volume.estimate_random ~domains ~prng:(Prng.create 42) ~dim:2 ~n:1000
          quarter_box
      in
      let fam =
        Approx_volume.estimate_family_random ~domains ~prng:(Prng.create 42) ~dim:1
          ~n:1000
          ~mem:(fun a p -> Q.lt p.(0) a)
          [ qq 1 3; qq 2 3 ]
      in
      let ks = Approx_volume.sample_points ~domains ~prng:(Prng.create 42) ~dim:2 1000 in
      let tag = Printf.sprintf " at %d domains" domains in
      check ("random estimate" ^ tag) true (Q.equal est (q random));
      check ("family estimates" ^ tag) true
        (List.for_all2 (fun (_, e) s -> Q.equal e (q s)) fam family);
      check_int ("flat length" ^ tag) 2000 (Array.length ks);
      check ("last point" ^ tag) true (Q.equal (Prng.q_of_bits53 ks.((999 * 2) + 1)) (q last));
      check ("last point via point" ^ tag) true
        (Q.equal (Approx_volume.point ~dim:2 ks 999).(1) (q last)))
    [ (1, "61/250", [ "44/125"; "67/100" ], "8764297108012697/9007199254740992");
      (2, "59/250", [ "13/40"; "82/125" ], "2153065298021659/2251799813685248");
      (3, "117/500", [ "321/1000"; "78/125" ], "1517765492239493/9007199254740992");
      (4, "243/1000", [ "323/1000"; "643/1000" ], "628656660361237/4503599627370496") ]

let () =
  Alcotest.run "cqa_vc"
    [ ( "prng-halton",
        [ Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
          Alcotest.test_case "halton" `Quick test_halton ] );
      ( "setsystem",
        [ Alcotest.test_case "shatters" `Quick test_setsystem_shatters;
          Alcotest.test_case "thresholds" `Quick test_setsystem_thresholds;
          Alcotest.test_case "intervals" `Quick test_setsystem_intervals;
          Alcotest.test_case "edge cases" `Quick test_setsystem_edge ] );
      ( "bounds",
        [ Alcotest.test_case "monotone" `Quick test_bounds_monotone;
          Alcotest.test_case "goldberg-jerrum" `Quick test_bounds_gj;
          Alcotest.test_case "km blowup" `Quick test_km_blowup ] );
      ( "sampling",
        [ Alcotest.test_case "definable family" `Quick test_definable_family_halfline;
          Alcotest.test_case "fraction" `Quick test_fraction_in;
          Alcotest.test_case "monte carlo box" `Quick test_monte_carlo_box;
          Alcotest.test_case "family shared sample" `Quick test_estimate_family_shared_sample ] );
      ( "parallel-sampling",
        [ Alcotest.test_case "seq path exact" `Quick
            test_estimate_random_seq_matches_fraction_in;
          Alcotest.test_case "parallel deterministic" `Quick
            test_estimate_random_parallel_deterministic;
          Alcotest.test_case "halton domain-invariant" `Quick
            test_estimate_halton_domain_invariant;
          Alcotest.test_case "family parallel" `Quick
            test_estimate_family_random_parallel;
          Alcotest.test_case "draw order pinned" `Quick test_draw_order_pinned ] ) ]
