(* adhoc_exact: one closed-loop in-process caller sending a new FO+LIN VOL
   query per operation through Parser -> Planner.compile -> Exec.volume.
   Every query is a distinct shape, so the plan cache only ever misses and
   the work is quantifier elimination plus the Theorem 3 sweep. *)

open Cqa_core
open Common

let pieces = 5
let warmup = 60
let setup_reps = 9
let block_ops = 50

(* Every [check_every]-th answer is recomputed (all five shapes come up,
   since the shapes cycle with period 5). *)
let check_every = 4

(* Operations per second of --seconds on the reference machine: the run
   length is a fixed operation count, never a time box. *)
let ops_per_second = 330

let shapes =
  [|
    (fun rng -> "R(x, y) /\\ " ^ halfspace rng [ "x"; "y" ]);
    (fun rng -> "R(x, y) /\\ S(x, y) /\\ " ^ halfspace rng [ "y"; "x" ]);
    (fun rng -> "(R(x, y) \\/ S(x, y)) /\\ " ^ halfspace rng [ "x"; "y" ]);
    (fun rng -> "exists z . R(x, z) /\\ S(z, y) /\\ " ^ halfspace rng [ "z"; "x"; "y" ]);
    (fun rng -> "exists z . T(x, y, z) /\\ " ^ halfspace rng [ "z"; "y"; "x" ]);
  |]

(* [n] distinct query texts, shapes round-robin; [seen] spans every
   stream of the run so no two operations share a plan. *)
let queries rng seen n =
  Array.init n (fun i ->
      let rec draw () =
        let q = shapes.(i mod Array.length shapes) rng in
        if Hashtbl.mem seen q then draw ()
        else begin
          Hashtbl.add seen q ();
          q
        end
      in
      draw ())

let run_op db text =
  let p = Cqa_analysis.Planner.compile ~db (Parser.formula_of_string text) in
  (p, Exec.volume p db)

(* The same operation with each layer timed from here.  The last two
   steps mirror what [Exec.volume] does on a cold plan in dimension 2:
   evaluate the normalized query over the plan's coordinates, then build
   and integrate the Lemma 5 piece list. *)
type layers = {
  mutable parse : float;
  mutable plan : float;
  mutable eval : float;
  mutable volume : float;
  mutable breakpoints : int;
  mutable disjuncts : int;
}

let traced_op ly db text =
  let f, dt = time (fun () -> Parser.formula_of_string text) in
  ly.parse <- ly.parse +. dt;
  let p, dt = time (fun () -> Cqa_analysis.Planner.compile ~db f) in
  ly.plan <- ly.plan +. dt;
  let s, dt =
    time (fun () -> Eval.eval_set db (Plan.coords p) (Plan.normal p))
  in
  ly.eval <- ly.eval +. dt;
  let (v, fn), dt =
    time (fun () ->
        let fn = Volume_param.section_volume_function s in
        (Volume_param.integrate fn, fn))
  in
  ly.volume <- ly.volume +. dt;
  ly.breakpoints <- ly.breakpoints + List.length fn + 1;
  ly.disjuncts <- ly.disjuncts + Cqa_linear.Semilinear.disjunct_count s;
  (p, v)

let run ~seed ~seconds ~trace =
  let rng = Rng.create seed in
  let inserts = base_inserts ~pieces in
  let seen = Hashtbl.create 4096 in
  let warm = queries rng seen warmup in
  let n = ops_per_second * seconds in
  let ops = queries rng seen n in
  let setup () =
    let db = load_db inserts in
    Array.iter (fun q -> ignore (run_op db q)) warm;
    db
  in
  let db, setup_s =
    repeated_setup ~reps:(if trace then 1 else setup_reps)
      ~teardown:ignore setup
  in
  Gc.full_major ();
  let misses0 = plan_cache_misses () in
  let lats = Array.make n 0. in
  let traced = Array.make n false in
  let exact = Array.make n false in
  let plan_ids = Hashtbl.create n in
  let values = Array.make n Cqa_arith.Q.zero in
  let ly =
    { parse = 0.; plan = 0.; eval = 0.; volume = 0.; breakpoints = 0; disjuncts = 0 }
  in
  let before = T.snapshot () in
  let blocks =
    run_blocks ~n ~block_ops (fun i ->
        let on = trace && i mod 2 = 0 in
        traced.(i) <- on;
        let (p, v), dt =
          if on then begin
            T.enable ();
            let r = time (fun () -> traced_op ly db ops.(i)) in
            T.disable ();
            r
          end
          else time (fun () -> run_op db ops.(i))
        in
        lats.(i) <- dt;
        Hashtbl.replace plan_ids (Plan.id p) ();
        exact.(i) <-
          Plan.hint p = Some Dispatch.Exact_semilinear
          && Plan.decision p = Dispatch.Run_exact;
        values.(i) <- v)
  in
  (* counters only tick while enabled, i.e. inside traced operations *)
  let snap = T.diff ~before ~after:(T.snapshot ()) in
  let misses = plan_cache_misses () - misses0 in
  (* answer checks, outside the timed phase: an independent cold
     recomputation through the unplanned engine, on the source text *)
  clear_caches ();
  let failed = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i q ->
      let right () =
        Cqa_arith.Q.equal values.(i)
          (Volume_exact.volume_of_query db [| "x"; "y" |] (Parser.formula_of_string q))
      in
      if not (exact.(i) && (i mod check_every <> 0 || right ())) then begin
        incr failed;
        if !failed <= 3 then problem "op %d (%s): wrong answer or engine" i q
      end)
    ops;
  (* every operation must compile: one miss per distinct plan, and the
     rewriter may merge at most a handful of the random shapes *)
  let distinct = Hashtbl.length plan_ids in
  if misses <> distinct || distinct < n - (n / 100) then
    problem "plan-cache misses %d for %d distinct plans over %d operations" misses distinct n;
  let metrics, meta =
    if not trace then end_to_end ~min_div:20 ~setup:setup_s blocks lats
    else begin
      let sel b = Array.of_list (List.filteri (fun i _ -> traced.(i) = b) (Array.to_list lats)) in
      let on = sel true and off = sel false in
      let k = float_of_int (Array.length on) in
      let layer_sum = ly.parse +. ly.plan +. ly.eval +. ly.volume in
      let coverage = ratio layer_sum (Array.fold_left ( +. ) 0. on) in
      if coverage < 0.9 then problem "traced layers cover %.3f of operation wall time" coverage;
      ( [
          ("layer.parse_ms", ms ly.parse /. k, "ms");
          ("layer.plan_ms", ms ly.plan /. k, "ms");
          ("plan.miss_ratio", 1. -. hit_ratio snap "plan.cache", "ratio");
          ("layer.eval_ms", ms ly.eval /. k, "ms");
          ("fm.sat_memo.hit_ratio", hit_ratio snap "fm.sat_memo", "ratio");
          ("fm.qe_memo.hit_ratio", hit_ratio snap "fm.qe_memo", "ratio");
          ("fm.filter.sure_ratio", sure_ratio snap "fm.filter", "ratio");
          ("simplex.filter.sure_ratio", sure_ratio snap "simplex.filter", "ratio");
          ("layer.volume_ms", ms ly.volume /. k, "ms");
          ("volume.breakpoints_per_op", float_of_int ly.breakpoints /. k, "count");
          ("set.disjuncts_per_op", float_of_int ly.disjuncts /. k, "count");
          ("trace.coverage", coverage, "ratio");
          ("trace.overhead_ratio", ratio (mean off) (mean on), "ratio");
        ],
        [ ("ops", string_of_int n); ("traced_ops", string_of_int (Array.length on)) ] )
    end
  in
  {
    attempted = n;
    failed = !failed;
    problems = List.rev !problems;
    metrics;
    meta = meta @ [ ("pieces_per_relation", string_of_int pieces) ];
  }
