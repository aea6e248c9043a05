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

(* ------------------------------------------------------------------ *)
(* The compiled sampler oracle against Eval.holds                      *)
(* ------------------------------------------------------------------ *)

(* R: a box and a hostile half-plane piece; F: finite, with points on
   the 1/8 grid the sample generator below also hits. *)
let oracle_db =
  let schema = Schema.of_list [ ("R", 2); ("F", 2) ] in
  let region text =
    Eval.eval_set db0 (Semilinear.default_vars 2) (Parser.formula_of_string text)
  in
  Db.of_list schema
    [
      ( "R",
        Db.Semilin
          (Semilinear.union
             (region "0 <= x0 /\\ x0 <= 1/2 /\\ 1/3 <= x1 /\\ x1 <= 1")
             (region "3/7 * x0 + 5/11 * x1 <= 2/3 /\\ x1 >= 1/8")) );
      ( "F",
        Db.Finite
          [ [| Q.half; Q.of_ints 1 4 |]; [| Q.of_ints 1 8; Q.of_ints 7 8 |]; [| Q.of_ints 1 3; Q.of_ints 1 3 |] ] );
    ]

(* constants on the 1/8 grid put grid points exactly on the atom *)
let gen_grid = Gen.map (fun k -> Q.of_ints k 8) (Gen.int_range 0 8)
let gen_oracle_const = Gen.frequency [ (2, gen_hostile); (2, gen_grid) ]

(* Atoms over x, y; [pin] binds x, y to the case's first sample point,
   and some atoms get their constant from it, so that point lies exactly
   on the atom's zero set: with non-double coefficients the double
   evaluation there leaves a rounding residual, which only the error
   bound keeps from deciding the atom. *)
let gen_oracle_atom pin =
  let open Gen in
  let c = map (fun q -> Ast.Const q) gen_oracle_const in
  let v = oneofl [ Ast.TVar xx; Ast.TVar yy ] in
  let term =
    frequency
      [
        (3, map4 (fun a x b y -> Ast.Add (Ast.Mul (a, x), Ast.Mul (b, y))) c v c v);
        (2, map3 (fun a x y -> Ast.Mul (a, Ast.Mul (x, y))) c v v);
        ( 1,
          map2
            (fun x y -> Ast.Add (Ast.Mul (x, x), Ast.Mul (y, y)))
            (return (Ast.TVar xx)) (return (Ast.TVar yy)) );
      ]
  in
  frequency
    [
      (4, map3 (fun op t k -> Ast.Cmp (op, t, k)) gen_cmp term c);
      ( 3,
        map2
          (fun op t -> Ast.Cmp (op, t, Ast.Const (Eval.eval_term oracle_db pin t)))
          gen_cmp term );
      (2, map2 (fun a b -> Ast.Rel ("R", [ a; b ])) (oneofl [ xx; yy ]) (oneofl [ xx; yy ]));
      (1, return (Ast.Rel ("F", [ xx; yy ])));
      ( 1,
        return
          (Ast.Exists (zz, Parser.formula_of_string "R(x, z) /\\ z <= y")) );
    ]

let gen_oracle_formula pin =
  let open Gen in
  sized_size (int_range 1 6) @@ fix (fun self n ->
      if n <= 1 then gen_oracle_atom pin
      else
        frequency
          [
            (2, gen_oracle_atom pin);
            (3, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Ast.Not a) (self (n - 1)));
          ])

(* flat sample numerators: uniform 53-bit draws, or the 1/8 grid *)
let gen_numerator =
  Gen.frequency
    [ (1, Gen.int_range 0 ((1 lsl 53) - 1)); (1, Gen.map (fun k -> k lsl 50) (Gen.int_range 0 7)) ]

let env_at ks j =
  let pt = Cqa_vc.Approx_volume.point ~dim:2 ks j in
  Var.Map.(add xx pt.(0) (add yy pt.(1) empty))

let gen_oracle_case =
  let open Gen in
  let* ks = map Array.of_list (list_size (map (fun n -> 2 * n) (int_range 1 8)) gen_numerator) in
  let* f = gen_oracle_formula (env_at ks 0) in
  return (f, ks)

let print_oracle_case (f, ks) =
  Printf.sprintf "%s at %s" (print_formula f)
    (String.concat " " (Array.to_list (Array.map string_of_int ks)))

(* the oracle's contract: under either kernel, every sample point gets
   exactly Eval.holds's answer *)
let prop_oracle_matches_holds =
  Test.make ~name:"compiled oracle = Eval.holds on sample points" ~count:(2 * count)
    ~print:print_oracle_case gen_oracle_case (fun (f, ks) ->
      let kernel = Flatrow.enabled () in
      Fun.protect ~finally:(fun () -> Flatrow.set_kernel kernel) @@ fun () ->
      List.for_all
        (fun filtered ->
          Flatrow.set_kernel filtered;
          let test = Volume_approx.test (Volume_approx.compile oracle_db [| xx; yy |] f) ks in
          List.for_all
            (fun j ->
              Bool.equal (test j) (Eval.holds oracle_db (env_at ks j) f)
              || Test.fail_reportf "point %d differs (filtered kernel: %b)" j filtered)
            (List.init (Array.length ks / 2) Fun.id))
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* The sweep's vertex-pass bounds against the LP bounding box          *)
(* ------------------------------------------------------------------ *)

(* an atom  sum_i cs_i x_i + c OP 0  with small integer coefficients *)
type row = { cs : int list; c : Q.t; op : Linconstr.op }

let constr_of vars r =
  Linconstr.make
    (Linexpr.of_list r.c (List.mapi (fun i k -> (Q.of_int k, vars.(i))) r.cs))
    r.op

(* the box -1 <= x_i <= 1 on the first [n] of [arity] coordinates *)
let box_rows ~arity n =
  List.concat
    (List.init n (fun i ->
         let unit s = List.init arity (fun j -> if j = i then s else 0) in
         [ { cs = unit 1; c = Q.minus_one; op = Linconstr.Le };
           { cs = unit (-1); c = Q.minus_one; op = Linconstr.Le } ]))

let gen_row n =
  let open Gen in
  let* cs = list_repeat n (int_range (-2) 2) in
  let* c = gen_const in
  let* op = frequencyl [ (4, Linconstr.Le); (3, Linconstr.Lt); (1, Linconstr.Eq) ] in
  return { cs; c; op }

(* A 2-D or 3-D set: an (n + 1)-D DNF over (x.., w), sectioned at w = t.
   Sections keep disjuncts [Semilinear.make] would have pruned, so the
   set can carry a strict sliver  t < e(x) < w  whose closure at w = t is
   the hyperplane e(x) = t but whose points are none.  Most disjuncts are
   boxed; the rest are often unbounded.  Eq atoms make measure-zero sets.
   Shrinking drops atoms (the box and the sliver stay). *)
type bounds_case = { n : int; t : Q.t; disjuncts : row list list }

let gen_bounds_case =
  let open Gen in
  let* n = int_range 2 3 in
  let arity = n + 1 in
  let* t = gen_const in
  let w = frequencyl [ (3, 0); (1, 1); (1, -1) ] in
  let gen_disjunct =
    let* boxed = frequencyl [ (3, true); (1, false) ] in
    let* rows =
      list_size (int_range 0 4)
        (map2 (fun r cw -> { r with cs = r.cs @ [ cw ] }) (gen_row n) w)
    in
    let* sliver = frequencyl [ (4, false); (1, true) ] in
    let* e = list_repeat n (int_range (-2) 2) in
    let sliver_rows =
      if not sliver then []
      else
        [ { cs = List.map (fun k -> -k) e @ [ 0 ]; c = t; op = Linconstr.Lt };
          { cs = e @ [ -1 ]; c = Q.zero; op = Linconstr.Lt } ]
    in
    return ((if boxed then box_rows ~arity n else []) @ sliver_rows @ rows)
  in
  let* disjuncts = list_size (int_range 1 3) gen_disjunct in
  return { n; t; disjuncts }

let set_of_case { n; t; disjuncts } =
  let vars = Semilinear.default_vars (n + 1) in
  Semilinear.section_last
    (Semilinear.make vars (List.map (List.map (constr_of vars)) disjuncts))
    t

let print_bounds_case c = Format.asprintf "%a" Semilinear.pp (set_of_case c)

(* The breakpoints as the sweep computed them before the vertex pass
   took over: FM prune, the LP bounding box, then the arrangement's
   vertices clipped to the box's last axis. *)
let lp_breakpoints s =
  let n = Semilinear.dim s in
  let s =
    Semilinear.make (Semilinear.vars s)
      (List.filter Fourier_motzkin.satisfiable_conj (Semilinear.dnf s))
  in
  if Semilinear.dnf s = [] then []
  else
    match Semilinear.bounding_box s with
    | None -> raise Volume_exact.Unbounded
    | Some bb ->
        let lo, hi = bb.(n - 1) in
        List.map (fun v -> v.(n - 1)) (Volume_exact.arrangement_vertices s)
        |> List.filter (fun t -> Q.leq lo t && Q.leq t hi)
        |> List.cons lo |> List.cons hi
        |> List.sort_uniq Q.compare

let bounded f = match f () with v -> Some v | exception Volume_exact.Unbounded -> None

let print_qs qs = String.concat " " (List.map Q.to_string qs)

let under_both_kernels check =
  let kernel = Flatrow.enabled () in
  Fun.protect ~finally:(fun () -> Flatrow.set_kernel kernel) @@ fun () ->
  List.for_all
    (fun filtered ->
      Flatrow.set_kernel filtered;
      check filtered)
    [ true; false ]

let prop_vertex_bounds =
  Test.make ~name:"vertex-pass breakpoints = LP-box breakpoints" ~count
    ~print:print_bounds_case gen_bounds_case (fun case ->
      let s = set_of_case case in
      under_both_kernels (fun filtered ->
          let fail fmt = Test.fail_reportf ("(filtered kernel: %b) " ^^ fmt) filtered in
          match
            ( bounded (fun () -> lp_breakpoints s),
              bounded (fun () -> Volume_exact.breakpoints s),
              bounded (fun () -> Volume_exact.volume s),
              bounded (fun () -> Volume_exact.volume_incl_excl s) )
          with
          | None, None, None, None -> true
          | Some lp, Some bps, Some v, Some ie ->
              if not (List.equal Q.equal lp bps) then
                fail "breakpoints %s, LP reference %s" (print_qs bps) (print_qs lp)
              else if not (Q.equal v ie) then
                fail "sweep %s <> incl-excl %s" (Q.to_string v) (Q.to_string ie)
              else true
          | lp, bps, v, ie ->
              let says = function None -> "Unbounded" | Some _ -> "bounded" in
              fail "LP reference %s, breakpoints %s, volume %s, incl-excl %s"
                (says lp) (says bps) (says v) (says ie)))

(* ------------------------------------------------------------------ *)
(* Affine images: VOL(A S + b) = |det A| VOL(S)                        *)
(* ------------------------------------------------------------------ *)

(* small rational entries n/d, |n| <= 2, d in {1, 2} *)
let gen_entry = Gen.map2 (fun n d -> Q.of_ints n d) (Gen.int_range (-2) 2) (Gen.oneofl [ 1; 2 ])

let identity_entry i j = if i = j then Q.one else Q.zero

(* unimodular: a product of integer shears, with a sign flip *)
let gen_unimodular n =
  let open Gen in
  let axis = int_bound (n - 1) in
  let* shears = list_size (int_range 0 4) (triple axis axis (int_range (-2) 2)) in
  let* flip = bool in
  let m = Qmat.identity n in
  if flip then m.(0).(0) <- Q.minus_one;
  List.iter
    (fun (i, j, k) ->
      if i <> j then
        for c = 0 to n - 1 do
          m.(i).(c) <- Q.add m.(i).(c) (Q.mul (Q.of_int k) m.(j).(c))
        done)
    shears;
  return m

let rec gen_general n =
  let open Gen in
  let* m = array_repeat n (array_repeat n gen_entry) in
  if Q.is_zero (Qmat.det m) then gen_general n else return m

(* Shrink toward the identity one entry at a time, keeping only
   nonsingular candidates. *)
let shrink_matrix m =
  let n = Array.length m in
  List.init (n * n) (fun k -> (k / n, k mod n))
  |> List.filter (fun (i, j) -> not (Q.equal m.(i).(j) (identity_entry i j)))
  |> List.to_seq
  |> Seq.filter_map (fun (i, j) ->
         let m' = Array.map Array.copy m in
         m'.(i).(j) <- identity_entry i j;
         if Q.is_zero (Qmat.det m') then None else Some m')

let gen_matrix n =
  Gen.set_shrink shrink_matrix
    (Gen.frequency [ (1, gen_unimodular n); (1, gen_general n) ])

type affine_case = { dim : int; s_rows : row list list; a : Qmat.mat; b : Q.t array }

let gen_affine_case =
  let open Gen in
  let* dim = int_range 2 3 in
  let* s_rows =
    list_size (int_range 1 2)
      (map
         (fun rows -> box_rows ~arity:dim dim @ rows)
         (list_size (int_range 0 3) (gen_row dim)))
  in
  let* a = gen_matrix dim in
  let* b = array_repeat dim gen_const in
  return { dim; s_rows; a; b }

let affine_vars dim = Semilinear.default_vars dim

let set_of_rows dim rows =
  let vars = affine_vars dim in
  Semilinear.make vars (List.map (List.map (constr_of vars)) rows)

(* The image  { y : A^-1 (y - b) in S }: an atom  a . x + c OP 0  becomes
   (A^-T a) . y + (c - a . A^-1 b) OP 0.  The image lists its disjuncts in
   reverse order, so an engine that depends on disjunct order cannot
   pass. *)
let image { dim; s_rows; a; b } =
  let vars = affine_vars dim in
  let ainv = Option.get (Qmat.inverse a) in
  let shift = Qmat.mat_vec ainv b in
  let atom r =
    let av = Array.of_list (List.map Q.of_int r.cs) in
    let coeffs = Array.init dim (fun k -> Qmat.dot av (Array.init dim (fun i -> ainv.(i).(k)))) in
    let terms = Array.to_list (Array.mapi (fun k q -> (q, vars.(k))) coeffs) in
    Linconstr.make (Linexpr.of_list (Q.sub r.c (Qmat.dot av shift)) terms) r.op
  in
  Semilinear.make vars (List.rev_map (List.map atom) s_rows)

(* the image as a query over a relation R holding S:
   exists u . R(u) /\ x = A u + b *)
let image_query { dim; a; b; _ } coords =
  let us = Array.init dim (fun i -> Var.of_string (Printf.sprintf "u%d" i)) in
  let row i =
    Array.fold_left
      (fun acc (k, u) -> Ast.Add (acc, Ast.Mul (Ast.Const k, Ast.TVar u)))
      (Ast.Const b.(i))
      (Array.mapi (fun j u -> (a.(i).(j), u)) us)
  in
  let body =
    Ast.conj
      (Ast.Rel ("R", Array.to_list us)
      :: List.init dim (fun i -> Ast.Cmp (Ast.Ceq, Ast.TVar coords.(i), row i)))
  in
  Array.fold_right (fun u f -> Ast.Exists (u, f)) us body

let print_affine_case c =
  Format.asprintf "S = %a@.A = %a@.b = %a" Semilinear.pp (set_of_rows c.dim c.s_rows)
    Qmat.pp_mat c.a Qmat.pp_vec c.b

let prop_affine_image =
  Test.make ~name:"VOL(A S + b) = |det A| VOL(S)" ~count ~print:print_affine_case
    gen_affine_case (fun c ->
      let s = set_of_rows c.dim c.s_rows in
      let det = Q.abs (Qmat.det c.a) in
      let expect = Q.mul det (Volume_exact.volume s) in
      let direct = Volume_exact.volume (image c) in
      if not (Q.equal direct expect) then
        Test.fail_reportf "sweep: VOL(image) = %s, |det A| VOL(S) = %s" (Q.to_string direct)
          (Q.to_string expect)
      else
        let coords = [| xx; yy; zz |] |> fun a -> Array.sub a 0 c.dim in
        let db = Db.of_list (Schema.of_list [ ("R", c.dim) ]) [ ("R", Db.Semilin s) ] in
        let vol f = Exec.volume (Planner.compile ~db ~coords f) db in
        let planned = vol (image_query c coords) in
        let held = vol (Ast.Rel ("R", Array.to_list coords)) in
        if not (Q.equal planned (Q.mul det held)) then
          Test.fail_reportf "planned: VOL(image query) = %s, |det A| VOL(R) = %s"
            (Q.to_string planned) (Q.to_string (Q.mul det held))
        else Q.equal held (Volume_exact.volume s))

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
        [
          prop_volume_agreement; prop_guarded_agreement; prop_sampler_within_eps;
          prop_vertex_bounds; prop_affine_image;
        ];
      qsuite "updates" [ prop_incremental_matches_recompute ];
      qsuite "kernel"
        [ prop_filter_sound; prop_exact_oracles_agree; prop_oracle_matches_holds ];
    ]
