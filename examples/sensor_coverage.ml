(* Sensor coverage: a semi-algebraic workload for Theorem 4.

   Sensors cover disks in the unit square; the covered region is
   semi-algebraic, so its area is NOT exactly computable in any of the
   paper's closed languages -- but FO + POLY + SUM + W approximates it with
   a single shared sample whose size comes from the VC-dimension bound, and
   the same sample answers the whole parameter sweep at once.

   Run with: dune exec examples/sensor_coverage.exe *)

open Cqa_arith
open Cqa_poly
open Cqa_vc

let qq = Q.of_ints

let sensors =
  [ ([| qq 1 4; qq 1 4 |], qq 1 5);
    ([| qq 3 4; qq 1 3 |], qq 1 4);
    ([| qq 1 2; qq 3 4 |], qq 1 5);
    ([| qq 1 5; qq 4 5 |], qq 3 20) ]

let coverage radius_scale =
  List.fold_left
    (fun acc (center, r) ->
      Semialg.union acc (Semialg.ball ~center ~radius:(Q.mul r radius_scale)))
    (Semialg.empty 2) sensors

let () =
  let eps = 0.03 and delta = 0.1 in
  (* VC dimension of unions of 4 disks in the plane is bounded by a small
     constant; 12 is a safe over-estimate and only costs sample size *)
  let m = Bounds.blumer_sample_size ~eps ~delta ~vc_dim:12 in
  Format.printf
    "Theorem 4 sampling: eps = %g, delta = %g, VC bound 12 -> M = %d points@."
    eps delta m;

  (* one shared sample, drawn once by the witness operator *)
  let prng = Prng.create 2026 in
  let sample = Approx_volume.points ~dim:2 (Approx_volume.sample_points ~prng ~dim:2 m) in

  Format.printf "@.coverage as the sensor power (radius scale) varies:@.";
  Format.printf "| scale | estimated covered fraction |@.";
  List.iter
    (fun k ->
      let scale = qq k 4 in
      let c = coverage scale in
      let est = Approx_volume.fraction_in sample (Semialg.mem c) in
      Format.printf "| %s | %.4f |@." (Q.to_string scale) (Q.to_float est))
    [ 2; 3; 4; 5; 6 ];

  (* cross-check one configuration against a fresh, larger sample *)
  let c = coverage Q.one in
  let est = Approx_volume.fraction_in sample (Semialg.mem c) in
  let fresh = Prng.create 9999 in
  let big =
    Approx_volume.points ~dim:2 (Approx_volume.sample_points ~prng:fresh ~dim:2 (4 * m))
  in
  let est2 = Approx_volume.fraction_in big (Semialg.mem c) in
  Format.printf "@.scale 1: shared-sample %.4f vs independent 4M-sample %.4f (|diff| = %.4f < 2 eps)@."
    (Q.to_float est) (Q.to_float est2)
    (abs_float (Q.to_float est -. Q.to_float est2));

  (* the derandomized stand-in: a Halton sample, fully deterministic *)
  let h = Approx_volume.halton_sample ~dim:2 m in
  Format.printf "Halton (derandomized) estimate at scale 1: %.4f@."
    (Q.to_float (Approx_volume.fraction_in h (Semialg.mem c)));

  (* exact sections are still available in one dimension: the covered
     vertical line above x = 1/4 has algebraic endpoints *)
  let section = Semialg.last_axis_section c [| qq 1 4 |] in
  Format.printf "@.section at x = 1/4: %d component(s), measure ~ %s@."
    (Semialg.Section.component_count section)
    (match Semialg.Section.measure_approx ~eps:(qq 1 10000) section with
    | Some v -> Printf.sprintf "%.4f" (Q.to_float v)
    | None -> "infinite")
