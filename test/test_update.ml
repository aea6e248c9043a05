(* Incremental aggregate maintenance: the Semilinear delta API, Db
   versioning and its bounded change log, byte-identity of incremental
   answers with cold recomputes at several domain counts, delta-local MRU
   invalidation (asserted through the exec.invalidate.* / exec.reuse.*
   counters), and retained-sample re-scoring in the guarded fallback. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_core
module T = Cqa_telemetry.Telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q = Q.of_int
let qq = Q.of_ints

let counter_value name =
  match List.assoc_opt name (T.snapshot ()).T.counters with
  | Some v -> v
  | None -> 0

let xx = Var.of_string "x"
let yy = Var.of_string "y"
let coords = [| xx; yy |]

let box2 (a, b) (c, d) = Semilinear.box [| (a, b); (c, d) |]

let unit_box = box2 (Q.zero, Q.one) (Q.zero, Q.one)

(* ------------------------------------------------------------------ *)
(* Semilinear deltas                                                   *)
(* ------------------------------------------------------------------ *)

let test_delta_api () =
  let r = box2 (Q.zero, qq 1 2) (Q.zero, qq 1 2) in
  let d = Semilinear.insert_region (Semilinear.empty 2) r in
  check "insert into empty yields the region" true
    (Semilinear.equal d.Semilinear.updated r);
  check "insert is flagged" true d.Semilinear.inserted;
  check "insert delta not empty" false d.Semilinear.delta_empty;
  (match d.Semilinear.delta_box with
  | Some bb ->
      check "delta box is the region's box" true
        (Q.equal (fst bb.(0)) Q.zero
        && Q.equal (snd bb.(0)) (qq 1 2)
        && Q.equal (fst bb.(1)) Q.zero
        && Q.equal (snd bb.(1)) (qq 1 2))
  | None -> Alcotest.fail "expected a delta box");
  let d2 = Semilinear.remove_region unit_box r in
  check "removed points gone" false
    (Semilinear.mem d2.Semilinear.updated [| qq 1 4; qq 1 4 |]);
  check "untouched points stay" true
    (Semilinear.mem d2.Semilinear.updated [| qq 3 4; qq 3 4 |]);
  check "remove is flagged" false d2.Semilinear.inserted;
  let d3 = Semilinear.insert_region unit_box (Semilinear.empty 2) in
  check "empty insert is a no-op" true d3.Semilinear.delta_empty;
  check "empty insert leaves the set" true
    (Semilinear.equal d3.Semilinear.updated unit_box);
  check "empty insert has no box" true (d3.Semilinear.delta_box = None)

(* ------------------------------------------------------------------ *)
(* Db versioning and the bounded log                                   *)
(* ------------------------------------------------------------------ *)

let schema_r1 = Schema.of_list [ ("R", 1) ]

let seg a b = Semilinear.box [| (a, b) |]

let test_db_versioning () =
  let db = Db.empty schema_r1 in
  check_int "fresh db at version 0" 0 (Db.version db);
  let ch1 = Db.apply_update db (Db.Insert ("R", seg Q.zero Q.one)) in
  check_int "first update is version 1" 1 ch1.Db.version;
  check_int "db version bumped" 1 (Db.version db);
  let ch2 = Db.apply_update db (Db.Remove ("R", seg Q.zero (qq 1 2))) in
  check_int "second update is version 2" 2 ch2.Db.version;
  (match Db.changes_since db 0 with
  | Some [ a; b ] ->
      check_int "chronological order" 1 a.Db.version;
      check_int "chronological order (2)" 2 b.Db.version;
      check "insert flag recorded" true a.Db.inserted;
      check "remove flag recorded" false b.Db.inserted
  | _ -> Alcotest.fail "expected exactly two changes since version 0");
  (match Db.changes_since db 2 with
  | Some [] -> ()
  | _ -> Alcotest.fail "up-to-date reader gets Some []");
  check "reader ahead of the db gets None" true (Db.changes_since db 5 = None);
  (* the updated relation reflects both edits *)
  check "membership after updates" true (Db.mem_tuple db "R" [| qq 3 4 |]);
  check "membership after updates (2)" false (Db.mem_tuple db "R" [| qq 1 4 |]);
  (* functional constructors restart the history *)
  let db' = Db.add "R" (Db.Semilin (seg Q.zero Q.one)) db in
  check_int "Db.add returns a fresh version-0 value" 0 (Db.version db');
  (* log truncation: push the log past its cap *)
  for i = 1 to Db.log_cap + 8 do
    ignore
      (Db.apply_update db (Db.Insert ("R", seg (q i) (Q.add (q i) (qq 1 2)))))
  done;
  check "too-old reader falls off the bounded log" true
    (Db.changes_since db 0 = None);
  (match Db.changes_since db (Db.version db - 1) with
  | Some [ _ ] -> ()
  | _ -> Alcotest.fail "recent reader still replays from the log");
  (* invalid updates *)
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Db.apply_update: unknown relation S") (fun () ->
      ignore (Db.apply_update db (Db.Insert ("S", seg Q.zero Q.one))));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Db.apply_update: arity mismatch in R") (fun () ->
      ignore (Db.apply_update db (Db.Insert ("R", unit_box))))

(* ------------------------------------------------------------------ *)
(* Incremental answers = cold recompute, at domains 1 / 2 / 4          *)
(* ------------------------------------------------------------------ *)

let schema_r2 = Schema.of_list [ ("R", 2); ("S", 2) ]
let query_r = Ast.Rel ("R", [ xx; yy ])

let cold_clamped db f = Volume_exact.volume_clamped (Eval.eval_set db coords f)

(* a mixed script: growing inserts, an overlapping remove, a no-op empty
   edit, an unbounded halfspace region, and an edit to a relation the
   query never consults *)
let script =
  [
    ("R", true, box2 (Q.zero, qq 1 2) (Q.zero, qq 1 2));
    ("R", true, box2 (qq 1 4, qq 3 4) (qq 1 4, qq 3 4));
    ("R", false, box2 (Q.zero, qq 1 4) (Q.zero, qq 1 4));
    ("R", true, Semilinear.empty 2);
    ("S", true, box2 (Q.zero, Q.one) (Q.zero, Q.one));
    ( "R",
      true,
      Semilinear.halfspace (Semilinear.default_vars 2)
        (Linconstr.le (Linexpr.var (Semilinear.default_vars 2).(0))
           (Linexpr.const (qq (-1) 2))) );
    ("R", false, box2 (qq 3 8, qq 5 8) (qq 3 8, qq 5 8));
  ]

let test_incremental_matches_cold () =
  List.iter
    (fun domains ->
      let db = Db.empty schema_r2 in
      let p = Cqa_analysis.Planner.compile ~db ~coords query_r in
      let label i =
        Printf.sprintf "domains %d, update %d: incremental = cold" domains i
      in
      check (label 0) true
        (Q.equal (Exec.volume_clamped ~domains p db) (cold_clamped db query_r));
      List.iteri
        (fun i (rel, inserted, r) ->
          let u = if inserted then Db.Insert (rel, r) else Db.Remove (rel, r) in
          ignore (Db.apply_update db u);
          check (label (i + 1)) true
            (Q.equal
               (Exec.volume_clamped ~domains p db)
               (cold_clamped db query_r)))
        script)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Delta-local MRU invalidation, observed through the counters         *)
(* ------------------------------------------------------------------ *)

let test_mru_invalidation () =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let db = Db.empty schema_r2 in
  let p = Cqa_analysis.Planner.compile ~db ~coords query_r in
  (* two well-separated cells so the piece list has reusable intervals *)
  ignore
    (Db.apply_update db (Db.Insert ("R", box2 (Q.zero, qq 1 4) (Q.zero, qq 1 4))));
  ignore
    (Db.apply_update db (Db.Insert ("R", box2 (qq 3 4, Q.one) (qq 3 4, Q.one))));
  let warm = Exec.volume_clamped p db in
  check "warm answer" true (Q.equal warm (cold_clamped db query_r));
  (* a small edit inside the first cell: only its pieces recompute *)
  let inv0 = counter_value "exec.invalidate.cells" in
  let reuse0 = counter_value "exec.reuse.cells" in
  ignore
    (Db.apply_update db (Db.Insert ("R", box2 (Q.zero, qq 1 8) (Q.zero, qq 1 8))));
  let v = Exec.volume_clamped p db in
  check "incremental after local edit = cold" true
    (Q.equal v (cold_clamped db query_r));
  check "intersecting cells dropped their memo" true
    (counter_value "exec.invalidate.cells" - inv0 > 0);
  check "untouched cells kept their memo" true
    (counter_value "exec.reuse.cells" - reuse0 > 0);
  (* an edit to a relation the query never consults invalidates nothing *)
  let inv1 = counter_value "exec.invalidate.cells" in
  let full1 = counter_value "exec.invalidate.full" in
  ignore
    (Db.apply_update db (Db.Insert ("S", box2 (Q.zero, Q.one) (Q.zero, Q.one))));
  let v' = Exec.volume_clamped p db in
  check "unrelated edit leaves the answer" true (Q.equal v v');
  check_int "unrelated edit invalidates no cells" inv1
    (counter_value "exec.invalidate.cells");
  check_int "unrelated edit never goes nuclear" full1
    (counter_value "exec.invalidate.full");
  (* a reader that falls off the bounded log rebuilds from scratch *)
  for i = 1 to Db.log_cap + 4 do
    ignore
      (Db.apply_update db
         (Db.Insert
            ( "S",
              box2
                (q i, Q.add (q i) (qq 1 2))
                (q i, Q.add (q i) (qq 1 2)) )))
  done;
  let full2 = counter_value "exec.invalidate.full" in
  check "stale reader still answers correctly" true
    (Q.equal (Exec.volume_clamped p db) (cold_clamped db query_r));
  check "stale reader rebuilt from scratch" true
    (counter_value "exec.invalidate.full" - full2 > 0)

(* ------------------------------------------------------------------ *)
(* Retained-sample re-scoring in the guarded fallback                  *)
(* ------------------------------------------------------------------ *)

let test_sampler_rescore () =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let db = Db.empty schema_r2 in
  let p = Cqa_analysis.Planner.compile ~db ~coords query_r in
  ignore
    (Db.apply_update db (Db.Insert ("R", box2 (Q.zero, qq 1 2) (Q.zero, Q.one))));
  let knobs = (0.2, 0.2, 11) in
  let eps, delta, seed = knobs in
  let guarded () =
    (Exec.volume_guarded ~budget:0. ~eps ~delta ~seed p db).Volume_exact.value
  in
  let oneshot () =
    fst (Volume_exact.sampler_estimate ~eps ~delta ~seed db coords query_r)
  in
  check "cold retained sample = one-shot estimator" true
    (Q.equal (guarded ()) (oneshot ()));
  (* a localized edit: only the points inside the delta box re-test *)
  let reuse0 = counter_value "exec.reuse.samples" in
  let inv0 = counter_value "exec.invalidate.samples" in
  ignore
    (Db.apply_update db
       (Db.Insert ("R", box2 (qq 1 2, qq 5 8) (Q.zero, qq 1 8))));
  check "re-scored sample = one-shot on the updated db" true
    (Q.equal (guarded ()) (oneshot ()));
  check "dirty points re-tested" true
    (counter_value "exec.invalidate.samples" - inv0 > 0);
  check "clean points kept their bits" true
    (counter_value "exec.reuse.samples" - reuse0 > 0);
  (* warm repeat: the retained sample answers again, identically *)
  check "warm repeat is stable" true (Q.equal (guarded ()) (oneshot ()))

(* The pre-oracle definition of a sample bitmap: [Eval.holds] at each
   drawn point as a rational, scored on the same chunks. *)
let reference_bits ~domains ~seed ~m db f =
  let ks = Cqa_vc.Approx_volume.sample_points ~domains ~prng:(Cqa_vc.Prng.create seed) ~dim:2 m in
  Cqa_vc.Approx_volume.score ~domains ~n:m (fun j ->
      let pt = Cqa_vc.Approx_volume.point ~dim:2 ks j in
      Eval.holds db (Var.Map.of_seq (Array.to_seq (Array.combine coords pt))) f)

(* Retained bits, one-shot bits and the Eval.holds reference agree at
   every domain count, before and after an update that re-tests part of
   the retained sample. *)
let test_retained_bits_domains () =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let f = Parser.formula_of_string "(R(x, y) \\/ R(y, x)) /\\ x * y <= 1/5" in
  let db = Db.empty schema_r2 in
  ignore (Db.apply_update db (Db.Insert ("R", box2 (Q.zero, qq 1 2) (Q.zero, Q.one))));
  let eps, delta, seed = (0.2, 0.2, 5) in
  let m = Volume_exact.sampler_size ~eps ~delta coords in
  let p = Cqa_analysis.Planner.compile ~db ~coords ~budget:0. f in
  let agree what =
    List.iter
      (fun domains ->
        let tag = Printf.sprintf "%s at %d domains" what domains in
        let est = (Exec.volume_guarded ~domains ~budget:0. ~eps ~delta ~seed p db).Volume_exact.value in
        let _, oneshot = Volume_exact.sampler_draw ~domains ~seed ~m db coords f in
        check ("one-shot = Eval.holds reference " ^ tag) true
          (Bytes.equal oneshot (reference_bits ~domains ~seed ~m db f));
        check ("estimate = one-shot " ^ tag) true
          (Q.equal est (Cqa_vc.Approx_volume.fraction_of_bits oneshot));
        match Exec.retained_bits ~domains ~eps ~delta ~seed p db with
        | Some bits -> check ("retained = one-shot " ^ tag) true (Bytes.equal bits oneshot)
        | None -> Alcotest.fail ("no retained sample " ^ tag))
      [ 1; 2; 4 ]
  in
  agree "cold";
  let reuse0 = counter_value "exec.reuse.samples" in
  let inv0 = counter_value "exec.invalidate.samples" in
  ignore (Db.apply_update db (Db.Insert ("R", box2 (qq 1 2, qq 3 4) (Q.zero, qq 1 4))));
  agree "after an insert";
  check "the insert re-tested some retained points" true
    (counter_value "exec.invalidate.samples" > inv0);
  check "and kept the others" true (counter_value "exec.reuse.samples" > reuse0);
  ignore (Db.apply_update db (Db.Remove ("R", box2 (Q.zero, qq 1 4) (qq 1 4, qq 1 2))));
  agree "after a remove"

(* ------------------------------------------------------------------ *)
(* Memos above the executor see in-place updates                       *)
(* ------------------------------------------------------------------ *)

(* The rewriter reads R's bounding box, so before the insert it proves
   [x >= 2] disjoint from R and compiles the query to [false]; compiling
   the same question after the insert must not replay that plan. *)
let test_planner_after_update () =
  let db = Db.empty schema_r2 in
  ignore (Db.apply_update db (Db.Insert ("R", unit_box)));
  let f = Parser.formula_of_string "R(x, y) /\\ x >= 2" in
  let vol () = Exec.volume (Cqa_analysis.Planner.compile ~db ~coords f) db in
  check "disjoint from R before the insert" true (Q.equal (vol ()) Q.zero);
  ignore
    (Db.apply_update db (Db.Insert ("R", box2 (q 2, q 3) (Q.zero, Q.one))));
  check "the insert is reflected in a recompiled query" true
    (Q.equal (vol ()) Q.one)

(* Eval's holds memo caches quantified-subformula truth per binding; an
   estimate drawn after an in-place insert must equal the estimate on a
   database freshly built with the same contents. *)
let test_holds_memo_after_update () =
  let f = Parser.formula_of_string "exists z . R(x, z) /\\ y <= z" in
  let left = box2 (Q.zero, qq 1 2) (Q.zero, Q.one)
  and right = box2 (qq 1 2, Q.one) (Q.zero, Q.one) in
  let estimate db =
    fst (Volume_exact.sampler_estimate ~eps:0.1 ~delta:0.1 ~seed:1 db coords f)
  in
  let db = Db.empty schema_r2 in
  ignore (Db.apply_update db (Db.Insert ("R", left)));
  let before = estimate db in
  ignore (Db.apply_update db (Db.Insert ("R", right)));
  let fresh = Db.empty schema_r2 in
  ignore (Db.apply_update fresh (Db.Insert ("R", left)));
  ignore (Db.apply_update fresh (Db.Insert ("R", right)));
  let after = estimate db in
  check "the insert changes the estimate" false (Q.equal before after);
  check "in-place db = freshly built db" true (Q.equal after (estimate fresh));
  check "the whole unit square after the insert" true (Q.equal after Q.one)

let () =
  Alcotest.run "cqa_update"
    [
      ( "deltas",
        [ Alcotest.test_case "semilinear delta summaries" `Quick test_delta_api ] );
      ( "db",
        [
          Alcotest.test_case "versioning and the bounded log" `Quick
            test_db_versioning;
        ] );
      ( "exec",
        [
          Alcotest.test_case "incremental = cold at domains 1/2/4" `Quick
            test_incremental_matches_cold;
          Alcotest.test_case "delta-local MRU invalidation" `Quick
            test_mru_invalidation;
          Alcotest.test_case "retained-sample re-scoring" `Quick
            test_sampler_rescore;
          Alcotest.test_case "retained bits at domains 1/2/4" `Quick
            test_retained_bits_domains;
        ] );
      ( "memos",
        [
          Alcotest.test_case "planner recompiles after an update" `Quick
            test_planner_after_update;
          Alcotest.test_case "holds memo after an update" `Quick
            test_holds_memo_after_update;
        ] );
    ]
