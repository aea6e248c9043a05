(* Shared plumbing for the workloads: clocks, seeded input text, the
   in-process insert path, cache control, summary statistics and the
   result record every workload returns. *)

open Cqa_arith
open Cqa_core
module T = Cqa_telemetry.Telemetry

let now () = Unix.gettimeofday ()
let ms s = s *. 1000.

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Seeded input text                                                   *)
(* ------------------------------------------------------------------ *)

module Rng = Cqa_vc.Prng

(* [k/den] with [lo*den <= k <= hi*den], rendered in lowest terms. *)
let rat rng ~den ~lo ~hi =
  let k = (lo * den) + Rng.int rng (((hi - lo) * den) + 1) in
  Q.of_ints k den

let qs q = Q.to_string q

(* A linear term [c1*v1 + c2*v2 + ...] with explicit signs, so the text
   never needs unary minus inside a sum. *)
let lin_term terms =
  let buf = Buffer.create 32 in
  List.iteri
    (fun i (c, v) ->
      let neg = Q.sign c < 0 in
      let a = Q.abs c in
      if i = 0 then (if neg then Buffer.add_string buf "-")
      else Buffer.add_string buf (if neg then " - " else " + ");
      if Q.equal a Q.one then Buffer.add_string buf v
      else Buffer.add_string buf (Printf.sprintf "%s * %s" (qs a) v))
    terms;
  Buffer.contents buf

(* A random half-space [v0 + c1*v1 + ... <= rhs] whose boundary passes
   through a random point of the unit cube.  The leading coefficient is
   fixed at +-1, so two distinct draws never describe the same set up to
   scaling (the plan cache keys on the normalized formula). *)
let halfspace rng vars =
  let coeffs =
    List.mapi
      (fun i v ->
        let c =
          if i = 0 then if Rng.int rng 2 = 0 then Q.one else Q.minus_one
          else
            let k = Rng.int rng 9 - 4 in
            Q.of_ints (if k = 0 then 1 else k) 4
        in
        (c, v))
      vars
  in
  let rhs =
    List.fold_left
      (fun acc (c, _) -> Q.add acc (Q.mul c (rat rng ~den:64 ~lo:0 ~hi:1)))
      Q.zero coeffs
  in
  Printf.sprintf "%s <= %s" (lin_term coeffs) (qs rhs)

(* One piece of a base relation over [x0 .. x(d-1)]: a box inside the
   unit cube with corners on the 1/8 grid.  Coarse corners keep the
   number of distinct constraint hyperplanes, and with it the sweep's
   breakpoint count, moderate. *)
let piece_region rng d =
  String.concat " /\\ "
    (List.init d (fun i ->
         let lo = Q.of_ints (Rng.int rng 6) 8 in
         let hi = Q.add lo (Q.of_ints (2 + Rng.int rng 2) 8) in
         Printf.sprintf "x%d >= %s /\\ x%d <= %s" i (qs lo) i (qs (Q.min hi Q.one))))

(* ------------------------------------------------------------------ *)
(* The database: R/2, S/2, T/3                                        *)
(* ------------------------------------------------------------------ *)

let schema_spec = "R:2,S:2,T:3"
let arities = [ ("R", 2); ("S", 2); ("T", 3) ]

(* The insert stream that builds the base relations, [pieces] per
   relation, interleaved across relations.  The database is drawn from a
   fixed generator seed, not the run's: query cost depends strongly on how
   the pieces of R, S and T happen to overlap, so a per-run database would
   make runs with different seeds measure different data.  The run's seed
   drives everything else (queries, bindings, sampler seeds). *)
let db_seed = 7

let base_inserts ~pieces =
  let rng = Rng.create db_seed in
  List.concat
    (List.init pieces (fun _ ->
         List.map (fun (r, d) -> (r, piece_region rng d)) arities))

let schema () =
  match Cqa_serve.Protocol.schema_of_spec schema_spec with
  | Ok s -> s
  | Error m -> failwith m

(* The in-process twin of the server's insert verb: region text ->
   [Eval.eval_set] over the canonical coordinates -> [Db.apply_update]. *)
let region_set ~arity text =
  Eval.eval_set
    (Db.empty Cqa_logic.Schema.empty)
    (Cqa_linear.Semilinear.default_vars arity)
    (Parser.formula_of_string text)

let load_db inserts =
  let db = Db.empty (schema ()) in
  List.iter
    (fun (rel, text) ->
      let arity = Cqa_logic.Schema.arity_exn (Db.schema db) rel in
      ignore (Db.apply_update db (Db.Insert (rel, region_set ~arity text))))
    inserts;
  db

(* Every engine memo, so a set-up repetition or an answer check starts
   cold. *)
let clear_caches () =
  Plan.clear_cache ();
  Cqa_analysis.Planner.clear_memo ();
  Cqa_analysis.Rewrite.clear_memo ();
  Cqa_linear.Fourier_motzkin.clear_qe_cache ();
  Cqa_linear.Semilinear.clear_bbox_cache ();
  Cqa_linear.Simplex.clear_basis_cache ();
  Cqa_linear.Flatrow.clear_cache ()

let plan_cache_misses () =
  Array.fold_left
    (fun n (s : Cqa_conc.Striped_tbl.stat) -> n + s.misses)
    0 (Plan.cache_stats ())

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [frac] quantile (nearest rank). *)
let quantile a frac =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (frac *. float_of_int n)) - 1)))

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Telemetry counters over a window of the run. *)
let counter (s : T.snapshot) name =
  Option.value (List.assoc_opt name s.T.counters) ~default:0

let hit_ratio s prefix =
  let h = counter s (prefix ^ ".hit") and m = counter s (prefix ^ ".miss") in
  iratio h (h + m)

let sure_ratio s prefix =
  let a = counter s (prefix ^ ".sure") and b = counter s (prefix ^ ".fallback") in
  iratio a (a + b)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed answer checks and path guards *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  meta : (string * string) list;  (** extra run metadata, rendered JSON *)
}

(* ------------------------------------------------------------------ *)
(* Quiet blocks                                                        *)
(* ------------------------------------------------------------------ *)

(* The host's effective CPU speed switches between a fast and a slow
   state in bursts of a few seconds (NOTES.md has the measurements), so a
   whole-run mean mostly measures how much of the run fell into slow
   bursts.  Each timed phase is therefore cut into blocks of consecutive
   operations, and a fixed reference kernel -- plain integer and
   allocation work that shares no code with the engine -- is timed just
   before each block.  The end-to-end figures are computed over the
   blocks whose reference ran fast ([quiet_blocks]): those ran on a quiet
   machine, and which blocks they are does not depend on the operations
   inside them.  A kernel much shorter than its 4 ms escapes the slow
   bursts a 0.1 s block catches. *)

let reference_kernel () =
  let t0 = now () in
  let a = Array.make 4096 0 in
  for r = 1 to 1200 do
    for i = 0 to 4095 do
      a.(i) <- ((a.(i) * 31) + i + r) land 0xFFFF
    done
  done;
  let l = List.init 4000 (fun i -> i * 7 mod 13) in
  ignore (Sys.opaque_identity (a, List.fold_left ( + ) 0 l));
  now () -. t0

type blocks = {
  block_ops : int;
  refs : float array;  (** reference kernel time before each block *)
  walls : float array;  (** wall time of each block's operations *)
}

(* Run ops [0, n) in blocks, the reference kernel before each. *)
let run_blocks ~n ~block_ops op =
  let nb = (n + block_ops - 1) / block_ops in
  let refs = Array.make nb 0. and walls = Array.make nb 0. in
  for b = 0 to nb - 1 do
    refs.(b) <- reference_kernel ();
    let t0 = now () in
    for i = b * block_ops to min n ((b + 1) * block_ops) - 1 do
      op i
    done;
    walls.(b) <- now () -. t0
  done;
  { block_ops; refs; walls }

(* Blocks whose reference ran within 20% of the run's fast-state time
   (its 10th percentile), fastest first, but at least [1/min_div] and at
   most a third of all blocks. *)
let quiet_blocks ?(min_div = 10) refs =
  let nb = Array.length refs in
  let order = Array.init nb Fun.id in
  Array.stable_sort (fun a b -> compare refs.(a) refs.(b)) order;
  let base = refs.(order.(nb / 10)) in
  let fast = Array.fold_left (fun k r -> if r <= 1.2 *. base then k + 1 else k) 0 refs in
  Array.sub order 0 (max (max 1 (nb / min_div)) (min fast (nb / 3)))

(* End-to-end figures over the quiet blocks; [lats] holds every
   operation's latency in sequence order.  A smaller [min_div] keeps more
   slow blocks out of a run that was mostly slow, at the price of fewer
   samples. *)
let end_to_end ?min_div ~setup bl lats =
  let n = Array.length lats in
  let sel = quiet_blocks ?min_div bl.refs in
  (* the tail is the highest percentile with at least ten samples beyond
     it in the smallest quiet set a run can keep, so it is the same
     percentile in every run of a workload *)
  let min_quiet =
    max 1 (Array.length bl.refs / Option.value min_div ~default:10) * bl.block_ops
  in
  let tail_frac = Float.max 0.5 (1. -. (10. /. float_of_int min_quiet)) in
  let ops = ref 0 and wall = ref 0. and qlats = ref [] in
  Array.iter
    (fun b ->
      let lo = b * bl.block_ops and hi = min n ((b + 1) * bl.block_ops) in
      ops := !ops + (hi - lo);
      wall := !wall +. bl.walls.(b);
      for i = lo to hi - 1 do
        qlats := lats.(i) :: !qlats
      done)
    sel;
  let qlats = Array.of_list !qlats in
  let p50 = median qlats and tail_v = quantile qlats tail_frac in
  let total_wall = Array.fold_left ( +. ) 0. bl.walls in
  ( [
      ("setup_s", setup, "s");
      ("ops_per_s", float_of_int !ops /. !wall, "1/s");
      ("lat_p50_ms", ms p50, "ms");
      ("lat_tail_ms", ms tail_v, "ms");
      ("rss_peak_mb", rss_peak_mb (), "MB");
    ],
    [
      ("ops", string_of_int n);
      ("blocks", string_of_int (Array.length bl.refs));
      ("quiet_blocks", string_of_int (Array.length sel));
      ("quiet_ops", string_of_int !ops);
      ("lat_tail_percentile", Printf.sprintf "%.2f" (100. *. tail_frac));
      ("all_ops_per_s", Printf.sprintf "%.3f" (float_of_int n /. total_wall));
      ("all_lat_p50_ms", Printf.sprintf "%.4f" (ms (median lats)));
      ("ref_ms_min", Printf.sprintf "%.4f" (ms (Array.fold_left min infinity bl.refs)));
      ("ref_ms_median", Printf.sprintf "%.4f" (ms (median bl.refs)));
    ] )

(* Set up [reps] times, keep the last set-up for the timed phase.  Every
   repetition starts from cold caches and is preceded by the reference
   kernel; the reported set-up time is the median over the quiet
   repetitions, as for the timed phase, or over all of them when [quiet]
   is false. *)
let repeated_setup ?(quiet = true) ~reps ~teardown setup =
  let times = Array.make reps 0. and refs = Array.make reps 0. in
  let rec go i =
    clear_caches ();
    Gc.full_major ();
    refs.(i) <- reference_kernel ();
    let st, dt = time setup in
    times.(i) <- dt;
    if i + 1 < reps then begin
      teardown st;
      go (i + 1)
    end
    else st
  in
  let st = go 0 in
  if quiet then (st, median (Array.map (fun i -> times.(i)) (quiet_blocks refs)))
  else (st, median times)
