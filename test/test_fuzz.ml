(* Metamorphic fuzz harness for the certified rewriter and the volume
   engines: random FO + LIN queries where (1) the rewritten form is
   semantically equivalent to the original under the Equiv decision
   procedure, (2) verification mode never collects a refutation, (3) the
   canonical form is a fixpoint and invariant under atom scaling, and
   (4) the exact engines (sweep, inclusion-exclusion, guarded dispatch)
   agree exactly on box-bounded queries — original and rewritten alike —
   with the Theorem 4 sampler within its epsilon.

   Iteration count: CQA_FUZZ_COUNT (default 60, so `dune runtest` stays
   fast; `make fuzz` raises it).  QCheck2 shrinking applies throughout. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_core
open Cqa_analysis

let count =
  match Sys.getenv_opt "CQA_FUZZ_COUNT" with
  | Some s -> ( try max 10 (int_of_string s) with Failure _ -> 60)
  | None -> 60

let db0 = Db.empty Schema.empty
let xx = Var.of_string "x"
let yy = Var.of_string "y"
let zz = Var.of_string "z"

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck2

(* small rational: n/d with |n| <= 4, d in {1,2,3} *)
let gen_const =
  Gen.map2
    (fun n d -> Q.of_ints n d)
    (Gen.int_range (-4) 4) (Gen.oneofl [ 1; 2; 3 ])

let gen_cmp = Gen.frequencyl [ (4, Ast.Cle); (4, Ast.Clt); (1, Ast.Ceq) ]

(* linear atom  c1*v1 + c2*v2 OP c  over the given variable pool *)
let gen_atom vars =
  let open Gen in
  let* v1 = oneofl vars in
  let* v2 = oneofl vars in
  let* c1 = int_range (-3) 3 in
  let* c2 = int_range (-3) 3 in
  let* c = gen_const in
  let* op = gen_cmp in
  return
    (Ast.Cmp
       ( op,
         Ast.Add
           ( Ast.Mul (Ast.Const (Q.of_int c1), Ast.TVar v1),
             Ast.Mul (Ast.Const (Q.of_int c2), Ast.TVar v2) ),
         Ast.Const c ))

(* quantifier-free random formula over the pool *)
let gen_qf vars =
  let open Gen in
  sized_size (int_range 1 6) @@ fix (fun self n ->
      if n <= 1 then gen_atom vars
      else
        frequency
          [
            (2, gen_atom vars);
            (3, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Ast.Not a) (self (n - 1)));
          ])

(* possibly-quantified formula: a z-binder over a qf body now and then *)
let gen_formula =
  let open Gen in
  let* body = gen_qf [ xx; yy; zz ] in
  frequencyl
    [ (3, body); (2, Ast.Exists (zz, body)); (1, Ast.Forall (zz, body)) ]

let print_formula f = Format.asprintf "%a" Ast.pp f

(* box-bounded query over (x, y): the exact engines always terminate and
   the clamped guarded volume coincides with the plain one *)
let box =
  Ast.conj
    [
      Parser.formula_of_string "0 <= x /\\ x <= 1";
      Parser.formula_of_string "0 <= y /\\ y <= 1";
    ]

let gen_boxed = Gen.map (fun f -> Ast.And (box, f)) (gen_qf [ xx; yy ])

(* scale every atom  t OP c  to  k*t OP k*c :  a pure respelling *)
let rec scale_formula k (f : Ast.formula) =
  match f with
  | Ast.Cmp (op, a, b) ->
      Ast.Cmp (op, Ast.Mul (Ast.Const k, a), Ast.Mul (Ast.Const k, b))
  | Ast.Not g -> Ast.Not (scale_formula k g)
  | Ast.And (g, h) -> Ast.And (scale_formula k g, scale_formula k h)
  | Ast.Or (g, h) -> Ast.Or (scale_formula k g, scale_formula k h)
  | Ast.Exists (v, g) -> Ast.Exists (v, scale_formula k g)
  | Ast.Forall (v, g) -> Ast.Forall (v, scale_formula k g)
  | Ast.True | Ast.False | Ast.Rel _ -> f

(* ------------------------------------------------------------------ *)
(* Rewriter properties                                                 *)
(* ------------------------------------------------------------------ *)

(* the central metamorphic property: rewriting is semantics-preserving,
   and the decision procedure can never refute it *)
let prop_rewrite_equivalent =
  Test.make ~name:"rewritten formula equivalent under Equiv" ~count
    ~print:print_formula gen_formula (fun f ->
      match Equiv.check f (Rewrite.formula f) with
      | Equiv.Distinct w ->
          Test.fail_reportf "refuted at %s"
            (Var.Map.bindings w
            |> List.map (fun (v, q) -> Var.name v ^ "=" ^ Q.to_string q)
            |> String.concat " ")
      | Equiv.Equal | Equiv.Unknown _ -> true)

let prop_verify_mode =
  Test.make ~name:"verify mode collects no refutation" ~count
    ~print:print_formula gen_formula (fun f ->
      (Rewrite.rewrite ~verify:true f).Rewrite.refuted = [])

let prop_fixpoint =
  Test.make ~name:"normal form is a fixpoint and never grows" ~count
    ~print:print_formula gen_formula (fun f ->
      let r = Rewrite.rewrite f in
      let g = r.Rewrite.rewritten in
      Plan.equal_formula g (Rewrite.formula g)
      && r.Rewrite.atoms_after <= r.Rewrite.atoms_before)

let prop_scale_invariant =
  Test.make ~name:"canonical form invariant under atom scaling" ~count
    ~print:print_formula gen_formula (fun f ->
      Plan.equal_formula
        (Rewrite.formula f)
        (Rewrite.formula (scale_formula (Q.of_int 2) f))
      && Plan.equal_formula
           (Rewrite.formula f)
           (Rewrite.formula (scale_formula (Q.of_ints 1 3) f)))

(* ------------------------------------------------------------------ *)
(* Volume agreement on box-bounded queries                             *)
(* ------------------------------------------------------------------ *)

let coords = [| xx; yy |]

let prop_volume_agreement =
  Test.make ~name:"exact volumes agree: original, rewritten, both engines"
    ~count ~print:print_formula gen_boxed (fun f ->
      let v = Volume_exact.volume_of_query db0 coords f in
      let v' = Volume_exact.volume_of_query db0 coords (Rewrite.formula f) in
      if not (Q.equal v v') then
        Test.fail_reportf "rewrite changed the volume: %s vs %s"
          (Q.to_string v) (Q.to_string v')
      else
        let s = Eval.eval_set db0 coords f in
        let sweep = Volume_exact.volume_sweep s in
        let ie = Volume_exact.volume_incl_excl s in
        if not (Q.equal sweep ie) then
          Test.fail_reportf "sweep %s <> incl-excl %s" (Q.to_string sweep)
            (Q.to_string ie)
        else Q.equal v sweep)

let prop_guarded_agreement =
  Test.make ~name:"guarded dispatch exact path matches" ~count
    ~print:print_formula gen_boxed (fun f ->
      let p = Planner.compile ~db:db0 ~coords f in
      let g = Exec.volume_guarded p db0 in
      match g.Volume_exact.engine with
      | Volume_exact.Exact_engine ->
          Q.equal g.Volume_exact.value
            (Volume_exact.volume_clamped (Eval.eval_set db0 coords f))
      | Volume_exact.Approx_engine _ -> true (* only past the budget *))

(* ------------------------------------------------------------------ *)
(* Incremental maintenance under random update sequences               *)
(* ------------------------------------------------------------------ *)

(* random ordered rational interval within [-1, 2] *)
let gen_interval =
  Gen.map2
    (fun a b -> if Q.leq a b then (a, b) else (b, a))
    gen_const gen_const

(* one update: insert or remove a random box region into R *)
let gen_update =
  let open Gen in
  let* inserted = bool in
  let* ix = gen_interval in
  let* iy = gen_interval in
  return (inserted, Semilinear.box [| ix; iy |])

let gen_update_seq = Gen.list_size (Gen.int_range 1 5) gen_update

let update_schema = Schema.of_list [ ("R", 2) ]

let print_updates us =
  us
  |> List.map (fun (ins, r) ->
         Format.asprintf "%s %a" (if ins then "insert" else "remove")
           Semilinear.pp r)
  |> String.concat "; "

(* the tentpole invariant: after every prefix of a random insert/remove
   sequence, the incrementally maintained answer is byte-identical to a
   cold recompute on the updated database *)
let prop_incremental_matches_recompute =
  Test.make ~name:"incremental update answers = cold recompute" ~count
    ~print:print_updates gen_update_seq (fun updates ->
      let f = Ast.Rel ("R", [ xx; yy ]) in
      let db = Db.empty update_schema in
      let p = Planner.compile ~db ~coords f in
      List.for_all
        (fun (inserted, r) ->
          let u = if inserted then Db.Insert ("R", r) else Db.Remove ("R", r) in
          ignore (Db.apply_update db u);
          let inc = Exec.volume_clamped p db in
          let cold = Volume_exact.volume_clamped (Eval.eval_set db coords f) in
          if Q.equal inc cold then true
          else
            Test.fail_reportf "at version %d: incremental %s <> cold %s"
              (Db.version db) (Q.to_string inc) (Q.to_string cold))
        updates)

let prop_sampler_within_eps =
  (* the sampler is probabilistic: eps 0.1 holds with probability
     1 - delta per query, so the gate uses a 3x slack — failures at that
     distance indicate a broken estimator, not sampling noise *)
  Test.make ~name:"sampler estimate within tolerance" ~count:(max 10 (count / 3))
    ~print:print_formula gen_boxed (fun f ->
      let v = Volume_exact.volume_of_query db0 coords f in
      let est, n =
        Volume_exact.sampler_estimate ~eps:0.1 ~delta:0.05 ~seed:7 db0 coords f
      in
      n > 0 && Float.abs (Q.to_float est -. Q.to_float v) <= 0.3)

(* ------------------------------------------------------------------ *)
(* Float-filter soundness against the exact oracle                     *)
(* ------------------------------------------------------------------ *)

(* ulp-hostile rationals: thirds / sevenths / elevenths (scaled to
   primitive integer rows by [Linconstr.make]), plus magnitudes around
   2^53 + 1 where float rounding actually bites *)
let gen_hostile =
  Gen.frequency
    [
      (4, gen_const);
      ( 2,
        Gen.map2
          (fun n d -> Q.of_ints n d)
          (Gen.int_range (-40) 40)
          (Gen.oneofl [ 3; 7; 11 ]) );
      ( 1,
        Gen.map
          (fun n -> Q.mul (Q.of_int n) (Q.of_string "9007199254740993"))
          (Gen.int_range (-2) 2) );
    ]

let gen_kernel_atom =
  let open Gen in
  let* c1 = gen_hostile in
  let* c2 = gen_hostile in
  let* c3 = gen_hostile in
  let* c = gen_hostile in
  let* op = oneofl [ Linconstr.Le; Linconstr.Lt; Linconstr.Eq ] in
  return (Linconstr.make (Linexpr.of_list c [ (c1, xx); (c2, yy); (c3, zz) ]) op)

let gen_kernel_conj = Gen.list_size (Gen.int_range 1 7) gen_kernel_atom

let print_conj conj =
  conj |> List.map (Format.asprintf "%a" Linconstr.pp) |> String.concat " /\\ "

(* the kernel's contract: a sure verdict is certified; Unknown is always
   allowed, a wrong sure answer is fatal *)
let prop_filter_sound =
  Test.make ~name:"float filter never contradicts exact FM" ~count:(2 * count)
    ~print:print_conj gen_kernel_conj (fun conj ->
      match Flatrow.sat_conj conj with
      | Flatrow.Unknown -> true
      | Flatrow.Sat ->
          Fourier_motzkin.satisfiable_conj_fm conj
          || Test.fail_reportf "filter said Sat, exact FM says unsat"
      | Flatrow.Unsat ->
          (not (Fourier_motzkin.satisfiable_conj_fm conj))
          || Test.fail_reportf "filter said Unsat, exact FM says sat")

(* both exact decision procedures agree with each other on the same
   hostile inputs (the simplex path also exercises the ratio-test
   filter's exact fallback) *)
let prop_exact_oracles_agree =
  Test.make ~name:"FM and simplex decisions agree" ~count ~print:print_conj
    gen_kernel_conj (fun conj ->
      Bool.equal
        (Fourier_motzkin.satisfiable_conj_fm conj)
        (Fourier_motzkin.satisfiable_conj_simplex conj))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "cqa_fuzz"
    [
      qsuite "rewrite"
        [
          prop_rewrite_equivalent; prop_verify_mode; prop_fixpoint;
          prop_scale_invariant;
        ];
      qsuite "volume"
        [ prop_volume_agreement; prop_guarded_agreement; prop_sampler_within_eps ];
      qsuite "updates" [ prop_incremental_matches_recompute ];
      qsuite "kernel" [ prop_filter_sound; prop_exact_oracles_agree ];
    ]
