(* approx_sample: in-process queries that all degrade to the Theorem 4
   sampler -- polynomial-atom queries (the static hint excludes the exact
   engine) and linear queries compiled against a finite budget.  eps and
   delta are fixed, so every operation draws the same sample size M; each
   operation is a new shape with its own sampler seed, so no retained
   sample is ever reused. *)

open Cqa_arith
open Cqa_core
open Common

let pieces = 5
let warmup = 8
let setup_reps = 9
let block_ops = 4

(* Every [check_every]-th answer is recomputed (all four shapes come up,
   since the shapes cycle with period 4). *)
let check_every = 3
let ops_per_second = 48
let eps = 0.1
let delta = 0.1
let budget = 1.0
let coords = [| "x"; "y" |]

let expected_m = Cqa_vc.Bounds.blumer_sample_size ~eps ~delta ~vc_dim:(Array.length coords + 2)

(* (query text, is the query linear) *)
let shapes =
  [|
    (fun rng -> (Printf.sprintf "R(x, y) /\\ x * y <= %s" (qs (rat rng ~den:256 ~lo:0 ~hi:1)), false));
    (fun rng -> ("R(x, y) /\\ " ^ halfspace rng [ "x"; "y" ], true));
    (fun rng ->
      ( Printf.sprintf "(R(x, y) \\/ S(x, y)) /\\ x * x + y * y <= %s"
          (qs (rat rng ~den:256 ~lo:0 ~hi:2)),
        false ));
    (fun rng -> ("(R(x, y) \\/ S(x, y)) /\\ " ^ halfspace rng [ "y"; "x" ], true));
  |]

let queries rng seen n =
  Array.init n (fun i ->
      let rec draw () =
        let (q, _) as r = shapes.(i mod Array.length shapes) rng in
        if Hashtbl.mem seen q then draw ()
        else begin
          Hashtbl.add seen q ();
          r
        end
      in
      draw ())

let compile db text =
  Cqa_analysis.Planner.compile ~db ~budget (Parser.formula_of_string text)

let sample p db seed = Exec.volume_guarded ~budget ~eps ~delta ~seed p db

let run ~seed ~seconds ~trace =
  let rng = Rng.create seed in
  let inserts = base_inserts ~pieces in
  let seen = Hashtbl.create 1024 in
  let warm = queries rng seen warmup in
  let n = ops_per_second * seconds in
  let ops = queries rng seen n in
  let op_seed i = (seed * 1_000_003) + i in
  let setup () =
    let db = load_db inserts in
    Array.iteri (fun i (q, _) -> ignore (sample (compile db q) db (op_seed (-1 - i)))) warm;
    db
  in
  let db, setup_s =
    repeated_setup ~reps:(if trace then 1 else setup_reps) ~teardown:ignore setup
  in
  Gc.full_major ();
  let lats = Array.make n 0. in
  let results = Array.make n None in
  let parse_t = ref 0. and plan_t = ref 0. and sampler_t = ref 0. in
  let on_wall = ref 0. and off_wall = ref 0. and on_n = ref 0 in
  let before = T.snapshot () in
  let blocks =
    run_blocks ~n ~block_ops (fun i ->
        let q, _ = ops.(i) in
        (* whole shape cycles alternate, so both halves see the same mix *)
        let on = trace && i / Array.length shapes mod 2 = 0 in
        let g, dt =
          if on then begin
            T.enable ();
            let r =
              time (fun () ->
                  let f, dt = time (fun () -> Parser.formula_of_string q) in
                  parse_t := !parse_t +. dt;
                  let p, dt = time (fun () -> Cqa_analysis.Planner.compile ~db ~budget f) in
                  plan_t := !plan_t +. dt;
                  let g, dt = time (fun () -> sample p db (op_seed i)) in
                  sampler_t := !sampler_t +. dt;
                  g)
            in
            T.disable ();
            incr on_n;
            on_wall := !on_wall +. snd r;
            r
          end
          else begin
            let r = time (fun () -> sample (compile db q) db (op_seed i)) in
            off_wall := !off_wall +. snd r;
            r
          end
        in
        lats.(i) <- dt;
        results.(i) <- Some g)
  in
  (* counters only tick while enabled, i.e. inside traced operations *)
  let points = counter (T.diff ~before ~after:(T.snapshot ())) "vc.membership_tests" in
  (* answer checks, outside the timed phase *)
  clear_caches ();
  let failed = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i (q, linear) ->
      let right value =
        let f = Parser.formula_of_string q in
        let oneshot, _ =
          Volume_exact.sampler_estimate ~eps ~delta ~seed:(op_seed i) db coords f
        in
        Q.equal oneshot value
        && ((not linear)
           ||
           let exact = Volume_exact.volume_clamped (Eval.eval_set db coords f) in
           Float.abs (Q.to_float exact -. Q.to_float value) <= eps)
      in
      let ok =
        match results.(i) with
        | Some { Volume_exact.value; engine = Volume_exact.Approx_engine { sample_size }; _ }
          when sample_size = expected_m ->
            i mod check_every <> 0 || right value
        | _ -> false
      in
      if not ok then begin
        incr failed;
        if !failed <= 3 then problem "op %d (%s): wrong estimate, engine or M" i q
      end)
    ops;
  let metrics, meta =
    if not trace then end_to_end ~setup:setup_s blocks lats
    else begin
      let k = float_of_int !on_n in
      let layer_sum = !parse_t +. !plan_t +. !sampler_t in
      let coverage = ratio layer_sum !on_wall in
      if coverage < 0.9 then problem "traced layers cover %.3f of operation wall time" coverage;
      ( [
          ("layer.parse_ms", ms !parse_t /. k, "ms");
          ("layer.plan_ms", ms !plan_t /. k, "ms");
          ("layer.sampler_ms", ms !sampler_t /. k, "ms");
          ("sampler.points_per_op", float_of_int points /. k, "count");
          ("sampler.us_per_point", 1e6 *. ratio !sampler_t (float_of_int points), "us");
          ("trace.coverage", coverage, "ratio");
          ( "trace.overhead_ratio",
            ratio (!off_wall /. float_of_int (n - !on_n)) (!on_wall /. k),
            "ratio" );
        ],
        [ ("ops", string_of_int n); ("traced_ops", string_of_int !on_n) ] )
    end
  in
  {
    attempted = n;
    failed = !failed;
    problems = List.rev !problems;
    metrics;
    meta = meta @ [ ("sample_size", string_of_int expected_m) ];
  }
