open Cqa_arith
open Cqa_logic
module T = Cqa_telemetry.Telemetry

(* Telemetry probes (zero-cost while disabled): per-variable projections
   with atom counts before/after, the Fkey QE memo and the shared
   conjunction-satisfiability memo.  All fm.* counters measure work
   actually performed, and elimination runs outside the memo locks: under
   the domain-parallel volume engine two domains can both miss the same
   cold key and eliminate it twice, so these counts (not just the
   hit/miss splits) are scheduling-dependent; they are deterministic for
   any single-domain run. *)
let tm_qe_calls = T.counter "fm.qe.calls"
let tm_projections = T.counter "fm.qe.projections"
let tm_atoms_before = T.counter "fm.qe.atoms_before"
let tm_atoms_after = T.counter "fm.qe.atoms_after"
let tm_qe_memo_hit = T.counter "fm.qe_memo.hit"
let tm_qe_memo_miss = T.counter "fm.qe_memo.miss"
let tm_sat_queries = T.counter "fm.sat.queries"
let tm_sat_memo_hit = T.counter "fm.sat_memo.hit"
let tm_sat_memo_miss = T.counter "fm.sat_memo.miss"

(* Cheap syntactic strengthening: among atoms sharing the same linear part
   (coefficients are kept primitive, so parallel constraints have equal
   variable parts and differ by the constant), keep only the tightest.
   Removes the bulk of Fourier-Motzkin's redundant combinations without any
   satisfiability calls. *)
let tighten_parallel conj =
  let key a =
    let e = Linconstr.expr a in
    (Linconstr.op a = Linconstr.Eq, Linexpr.coeffs e)
  in
  let tighter a b =
    (* same linear part: larger constant means a stronger <=/< constraint.
       The cached float enclosures decide the comparison whenever they are
       disjoint or equal points (always, for sub-2^53 integer constants);
       exact Q.compare only on the residue. *)
    let c =
      match
        if Flatrow.enabled () then Flatrow.compare_constants a b else None
      with
      | Some c -> c
      | None ->
          let ca = Linexpr.constant (Linconstr.expr a) in
          let cb = Linexpr.constant (Linconstr.expr b) in
          Q.compare ca cb
    in
    if c > 0 then a
    else if c < 0 then b
    else if Linconstr.op a = Linconstr.Lt then a
    else b
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let k = key a in
      match Hashtbl.find_opt table k with
      | None -> Hashtbl.replace table k a
      | Some b ->
          if fst k then () (* keep all equalities: conjunction may be unsat *)
          else Hashtbl.replace table k (tighter a b))
    conj;
  (* equalities may repeat in the table slot: collect all distinct *)
  let eqs =
    List.filter (fun a -> Linconstr.op a = Linconstr.Eq) conj
    |> List.sort_uniq Linconstr.compare
  in
  let ineqs =
    Hashtbl.fold (fun (is_eq, _) a acc -> if is_eq then acc else a :: acc) table []
  in
  eqs @ List.sort Linconstr.compare ineqs

(* Optimization toggles, exposed for the ablation benchmarks: each knob
   names one of the design choices DESIGN.md calls out.  All are on by
   default; turning them off restores textbook Fourier-Motzkin
   behaviour. *)
type optimizations = {
  mutable tightening : bool; (* parallel-atom strengthening after each step *)
  mutable elim_pruning : bool; (* satisfiability-based pruning of large conjunctions *)
  mutable absorption : bool; (* drop disjuncts syntactically implied by another *)
}

let optimizations = { tightening = true; elim_pruning = true; absorption = true }

(* Partition a conjunction by the sign of the coefficient of [x].  The
   accumulators are consed and the frees reversed once at the end, keeping
   the pass linear (the previous [frees @ [a]] made it quadratic on
   conjunctions dominated by atoms not mentioning [x]). *)
let partition_on x conj =
  let eqs, lowers, uppers, frees =
    List.fold_left
      (fun (eqs, lowers, uppers, frees) a ->
        let c = Linexpr.coeff (Linconstr.expr a) x in
        if Q.is_zero c then (eqs, lowers, uppers, a :: frees)
        else
          match Linconstr.op a with
          | Linconstr.Eq -> (a :: eqs, lowers, uppers, frees)
          | Linconstr.Le | Linconstr.Lt ->
              if Q.sign c < 0 then (eqs, a :: lowers, uppers, frees)
              else (eqs, lowers, a :: uppers, frees))
      ([], [], [], []) conj
  in
  (eqs, lowers, uppers, List.rev frees)

(* Positive combination eliminating x from a lower bound [l] (coeff < 0) and
   an upper bound [u] (coeff > 0): c_u * e_l - c_l * e_u. *)
let combine x l u =
  let el = Linconstr.expr l and eu = Linconstr.expr u in
  let cl = Linexpr.coeff el x and cu = Linexpr.coeff eu x in
  let e = Linexpr.add (Linexpr.smul cu el) (Linexpr.smul (Q.neg cl) eu) in
  let op =
    match (Linconstr.op l, Linconstr.op u) with
    | Linconstr.Le, Linconstr.Le -> Linconstr.Le
    | _ -> Linconstr.Lt
  in
  Linconstr.make e op

(* Strong (satisfiability-based) redundancy pruning is quadratic in FM
   calls; apply it only to conjunctions long enough for it to pay off. *)
let prune_threshold = 10
(* forward reference to the satisfiability-based pruner defined below *)
let prune_large : (Linformula.conjunction -> Linformula.conjunction) ref =
  ref (fun c -> c)

let eliminate_var x conj =
  if T.enabled () then begin
    T.incr tm_projections;
    T.add tm_atoms_before (List.length conj)
  end;
  let eqs, lowers, uppers, frees = partition_on x conj in
  let result =
    match eqs with
    | e :: _ -> (
        match Linexpr.solve_for (Linconstr.expr e) x with
        | None -> assert false
        | Some sol ->
            List.filter_map
              (fun a -> if Linconstr.equal a e then None else Some (Linconstr.subst a x sol))
              conj)
    | [] ->
        let combos =
          List.concat_map (fun l -> List.map (fun u -> combine x l u) uppers) lowers
        in
        frees @ combos
  in
  Option.map
    (fun c ->
      let c = if optimizations.tightening then tighten_parallel c else c in
      let c = if optimizations.elim_pruning then !prune_large c else c in
      if T.enabled () then T.add tm_atoms_after (List.length c);
      c)
    (Linformula.simplify_conjunction result)

let eliminate_var_dnf x d = List.filter_map (eliminate_var x) d

let pick_var conj candidates =
  (* prefer equality-substitutable variables, then the smallest
     lowers*uppers product *)
  let score v =
    let eqs, lowers, uppers, _ = partition_on v conj in
    if eqs <> [] then -1 else List.length lowers * List.length uppers
  in
  match candidates with
  | [] -> None
  | _ ->
      let best =
        List.fold_left
          (fun acc v ->
            match acc with
            | None -> Some (v, score v)
            | Some (_, s) ->
                let s' = score v in
                if s' < s then Some (v, s') else acc)
          None candidates
      in
      Option.map fst best

(* [prefilter] gates the float kernel's early-unsat probe on each input
   disjunct.  A surely-unsatisfiable conjunction projects to an
   unsatisfiable conjunction (Fourier-Motzkin computes exact
   projections), which every downstream consumer — satisfiability,
   sample_point_dnf, the qe satisfiability sweep — treats exactly like an
   absent disjunct, so dropping it early changes no result, only the work
   done.  The satisfiability entry points pass [prefilter:false]: they
   have already consulted the filter on the same conjunction and got
   Unknown, so re-probing could only repeat that answer. *)
let eliminate_all_gen ~prefilter vs d =
  let target = Var.Set.of_list vs in
  let rec elim_conj conj =
    let present = Var.Set.inter target (Linformula.conj_vars conj) in
    match pick_var conj (Var.Set.elements present) with
    | None -> Linformula.simplify_conjunction conj
    | Some v -> (
        match eliminate_var v conj with
        | None -> None
        | Some conj' -> elim_conj conj')
  in
  let elim_conj conj =
    if prefilter && Flatrow.enabled () && Flatrow.sat_conj conj = Flatrow.Unsat
    then None
    else elim_conj conj
  in
  List.filter_map elim_conj d

let eliminate_all vs d = eliminate_all_gen ~prefilter:true vs d

let satisfiable_conj_fm conj =
  match Linformula.simplify_conjunction conj with
  | None -> false
  | Some conj -> (
      let vs = Var.Set.elements (Linformula.conj_vars conj) in
      match eliminate_all_gen ~prefilter:false vs [ conj ] with
      | [] -> false
      | _ -> true)

(* Conjunction feasibility by the exact simplex: polynomial, but with a
   higher constant than elimination on the small conjunctions that dominate
   here.  Exported as an independent oracle; [satisfiable_conj] below uses
   elimination.  The warm-keyed [feasible_strict] reuses the last optimal
   basis for a structurally identical system — the filtered kernel's
   fallback re-solves hit the same conjunctions repeatedly. *)
let satisfiable_conj_simplex conj =
  match Linformula.simplify_conjunction conj with
  | None -> false
  | Some conj -> Simplex.feasible_strict conj

(* Elimination-based satisfiability is fastest on the small conjunctions
   that dominate, but degrades combinatorially; large systems go to the
   polynomial simplex.  The float kernel is consulted first: a sure
   verdict is certified equal to the exact one, and only Unknown (filter
   off, caps exceeded, or genuinely borderline arithmetic) pays for the
   exact path. *)
let satisfiable_conj_raw conj =
  match if Flatrow.enabled () then Flatrow.sat_conj conj else Flatrow.Unknown with
  | Flatrow.Sat -> true
  | Flatrow.Unsat -> false
  | Flatrow.Unknown ->
      if List.length conj <= 12 then satisfiable_conj_fm conj
      else satisfiable_conj_simplex conj

(* Satisfiability memo, keyed on the sorted interned-constraint tags of the
   conjunction.  Tags are never reused (the intern counter only grows), so a
   stale entry for collected constraints can never be looked up again; and
   the answer is a property of the constraint set, independent of both atom
   order and the optimization toggles, so the table survives ablation runs.
   Lock-striped for the domain-parallel volume engine: parallel sweeps used
   to serialize on one global mutex here. *)
module Sat_tbl = Cqa_conc.Striped_tbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash (k : int list) = Hashtbl.hash k
end)

let sat_memo : bool Sat_tbl.t =
  Sat_tbl.create ~name:"fm.sat_memo" ~cap:65536
    ~evict:Cqa_conc.Striped_tbl.Reset ()

let sat_cache_size () = Sat_tbl.length sat_memo

let satisfiable_conj conj =
  match conj with
  | [] -> true
  | _ -> (
      let key = List.sort_uniq Int.compare (List.map Linconstr.tag conj) in
      T.incr tm_sat_queries;
      match Sat_tbl.find_opt sat_memo key with
      | Some b ->
          T.incr tm_sat_memo_hit;
          b
      | None ->
          T.incr tm_sat_memo_miss;
          let b = satisfiable_conj_raw conj in
          Sat_tbl.replace sat_memo key b;
          b)

let satisfiable_dnf d = List.exists satisfiable_conj d

let entails_conj conj a =
  List.for_all
    (fun n -> not (satisfiable_conj (n :: conj)))
    (Linconstr.negate a)

let prune_redundant conj =
  let rec go kept = function
    | [] -> List.rev kept
    | a :: rest ->
        if entails_conj (List.rev_append kept rest) a then go kept rest
        else go (a :: kept) rest
  in
  go [] conj

(* Keep Fourier-Motzkin's intermediate conjunctions irredundant: without
   this, each eliminated variable can square the constraint count, which is
   the method's classical failure mode. *)
let () =
  prune_large :=
    fun conj ->
      if List.length conj > prune_threshold then prune_redundant conj else conj

(* Syntactic dedup of disjuncts (atoms sorted first), plus absorption:
   a disjunct whose atom set contains another disjunct's atom set is
   implied by it and can be dropped. *)
let dedup_dnf (d : Linformula.dnf) : Linformula.dnf =
  let canon conj = List.sort_uniq Linconstr.compare conj in
  let subset small big =
    (* both sorted *)
    let rec go s b =
      match (s, b) with
      | [], _ -> true
      | _, [] -> false
      | x :: s', y :: b' ->
          let c = Linconstr.compare x y in
          if c = 0 then go s' b' else if c > 0 then go s b' else false
    in
    go small big
  in
  let cs = List.map canon d in
  let rec uniq acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let dominated c' = if optimizations.absorption then subset c' c else c' = c in
        if List.exists dominated acc || List.exists dominated rest then
          uniq acc rest
        else uniq (c :: acc) rest
  in
  uniq [] cs


(* Complement of a DNF, as a DNF.  The product over the negated disjuncts is
   pruned eagerly: partial conjunctions that are already unsatisfiable are
   dropped before they multiply. *)
let complement_dnf (d : Linformula.dnf) : Linformula.dnf =
  let neg_disjunct conj : Linformula.dnf =
    List.concat_map (fun a -> List.map (fun n -> [ n ]) (Linconstr.negate a)) conj
  in
  match d with
  | [] -> [ [] ]
  | _ ->
      let parts = List.map neg_disjunct d in
      let product =
        List.fold_left
          (fun acc part ->
            let next =
              List.concat_map
                (fun c ->
                  List.filter_map
                    (fun c' ->
                      match Linformula.simplify_conjunction (c @ c') with
                      | None -> None
                      | Some merged ->
                          if satisfiable_conj merged then begin
                            let t = tighten_parallel merged in
                            Some
                              (if List.length t > prune_threshold then
                                 prune_redundant t
                               else t)
                          end
                          else None)
                    part)
                acc
            in
            dedup_dnf next)
          [ [] ] parts
      in
      product

(* Memo key for formulas over hash-consed atoms: equality short-circuits on
   physical identity and bottoms out in O(1) [Linconstr.equal]; the hash
   mixes the precomputed atom hashes instead of walking coefficient maps
   with the depth-limited polymorphic hash (whose 10-node cutoff made deep
   QE keys collide systematically). *)
module Fkey = struct
  type t = Linformula.t

  let rec equal (f : t) (g : t) =
    f == g
    ||
    match (f, g) with
    | Formula.True, Formula.True | Formula.False, Formula.False -> true
    | Formula.Atom a, Formula.Atom b -> Linconstr.equal a b
    | Formula.Rel (r, vs), Formula.Rel (r', vs') ->
        String.equal r r' && List.equal Var.equal vs vs'
    | Formula.Not f', Formula.Not g' -> equal f' g'
    | Formula.And (f1, f2), Formula.And (g1, g2)
    | Formula.Or (f1, f2), Formula.Or (g1, g2) ->
        equal f1 g1 && equal f2 g2
    | Formula.Exists (v, f'), Formula.Exists (w, g')
    | Formula.Forall (v, f'), Formula.Forall (w, g')
    | Formula.Exists_adom (v, f'), Formula.Exists_adom (w, g')
    | Formula.Forall_adom (v, f'), Formula.Forall_adom (w, g') ->
        Var.equal v w && equal f' g'
    | _ -> false

  let mix a b = (((a * 65599) lxor b) * 65599) land max_int

  let rec hash (f : t) =
    match f with
    | Formula.True -> 1
    | Formula.False -> 2
    | Formula.Atom a -> mix 3 (Linconstr.hash a)
    | Formula.Rel (r, vs) ->
        List.fold_left (fun acc v -> mix acc (Hashtbl.hash v)) (mix 5 (Hashtbl.hash r)) vs
    | Formula.Not f' -> mix 7 (hash f')
    | Formula.And (f1, f2) -> mix (mix 11 (hash f1)) (hash f2)
    | Formula.Or (f1, f2) -> mix (mix 13 (hash f1)) (hash f2)
    | Formula.Exists (v, f') -> mix (mix 17 (Hashtbl.hash v)) (hash f')
    | Formula.Forall (v, f') -> mix (mix 19 (Hashtbl.hash v)) (hash f')
    | Formula.Exists_adom (v, f') -> mix (mix 23 (Hashtbl.hash v)) (hash f')
    | Formula.Forall_adom (v, f') -> mix (mix 29 (Hashtbl.hash v)) (hash f')
end

module Fmemo = Hashtbl.Make (Fkey)

(* Quantifier elimination is memoized on the structure of subformulas:
   callers (notably the FO + POLY + SUM evaluator) re-eliminate identical
   quantified subformulas under many different outer instantiations.

   The table is shared across domains (the sampling estimators evaluate
   membership in parallel) and lock-striped on the Fkey hash, so domains
   touching different subformulas no longer contend; the elimination itself
   runs outside any lock, at worst duplicating work for a formula two
   domains race on.  When a stripe outgrows its capacity it sheds half of
   its entries instead of resetting, keeping the warm half of the working
   set. *)
module Qe_tbl = Cqa_conc.Striped_tbl.Make (Fkey)

let qe_memo : Linformula.dnf Qe_tbl.t =
  Qe_tbl.create ~name:"fm.qe_memo" ~cap:65536
    ~evict:Cqa_conc.Striped_tbl.Half ()

let set_qe_cache_capacity n =
  if n < 2 then invalid_arg "Fourier_motzkin.set_qe_cache_capacity";
  Qe_tbl.set_capacity qe_memo n

let qe_cache_size () = Qe_tbl.length qe_memo
let memo_find f = Qe_tbl.find_opt qe_memo f
let memo_add f d = Qe_tbl.replace qe_memo f d

let rec qe_nnf (f : Linformula.t) : Linformula.dnf =
  match f with
  | Formula.True -> [ [] ]
  | Formula.False -> []
  | Formula.Atom a -> [ [ a ] ]
  | Formula.Not (Formula.Atom a) -> List.map (fun c -> [ c ]) (Linconstr.negate a)
  | _ -> (
      match memo_find f with
      | Some d ->
          T.incr tm_qe_memo_hit;
          d
      | None ->
          T.incr tm_qe_memo_miss;
          let d = qe_nnf_raw f in
          memo_add f d;
          d)

and qe_nnf_raw (f : Linformula.t) : Linformula.dnf =
  match f with
  | Formula.True | Formula.False | Formula.Atom _ -> assert false
  | Formula.Not (Formula.Atom _) -> assert false
  | Formula.Not _ -> invalid_arg "Fourier_motzkin.qe: not in NNF"
  | Formula.And (g, h) ->
      let dg = qe_nnf g and dh = qe_nnf h in
      dedup_dnf
        (List.concat_map
           (fun cg ->
             List.filter_map
               (fun ch ->
                 match Linformula.simplify_conjunction (cg @ ch) with
                 | None -> None
                 | Some merged ->
                     if satisfiable_conj merged then Some merged else None)
               dh)
           dg)
  | Formula.Or (g, h) -> dedup_dnf (qe_nnf g @ qe_nnf h)
  | Formula.Exists (v, g) ->
      (* eliminate the whole existential block at once, in a greedy order *)
      let rec peel acc = function
        | Formula.Exists (v', g') -> peel (v' :: acc) g'
        | body -> (List.rev acc, body)
      in
      let vs, body = peel [ v ] g in
      dedup_dnf
        (List.filter satisfiable_conj (eliminate_all vs (qe_nnf body)))
  | Formula.Forall (v, g) ->
      (* a universal block costs two complements total, not two per
         variable: forall x...z. phi = not exists x...z. not phi *)
      let rec peel acc = function
        | Formula.Forall (v', g') -> peel (v' :: acc) g'
        | body -> (List.rev acc, body)
      in
      let vs, body = peel [ v ] g in
      let neg = complement_dnf (qe_nnf body) in
      complement_dnf
        (dedup_dnf (List.filter satisfiable_conj (eliminate_all vs neg)))
  | Formula.Rel _ -> invalid_arg "Fourier_motzkin.qe: schema atom"
  | Formula.Exists_adom _ | Formula.Forall_adom _ ->
      invalid_arg "Fourier_motzkin.qe: active-domain quantifier"

let clear_qe_cache () =
  Qe_tbl.reset qe_memo;
  Sat_tbl.reset sat_memo

let qe f =
  T.incr tm_qe_calls;
  List.filter satisfiable_conj (qe_nnf (Linformula.nnf f))

let sat f =
  let d = qe f in
  let vs = Var.Set.elements (Linformula.dnf_vars d) in
  eliminate_all vs d <> []

let valid f = not (sat (Formula.Not f))

let equivalent f g = valid (Formula.iff f g)

(* Numeric bounds that a conjunction places on [x] once all other variables
   are fixed by [env]. *)
type bound = { value : Q.t; strict : bool }

let sample_point conj =
  match Linformula.simplify_conjunction conj with
  | None -> None
  | Some conj ->
      let rec eliminate stack conj =
        let vs = Var.Set.elements (Linformula.conj_vars conj) in
        match pick_var conj vs with
        | None ->
            (* ground conjunction: satisfiable iff simplification succeeds *)
            (match Linformula.simplify_conjunction conj with
            | Some [] -> Some stack
            | Some _ | None -> None)
        | Some v -> (
            let mentioning =
              List.filter (fun a -> not (Q.is_zero (Linexpr.coeff (Linconstr.expr a) v))) conj
            in
            match eliminate_var v conj with
            | None -> None
            | Some conj' -> eliminate ((v, mentioning) :: stack) conj')
      in
      (match eliminate [] conj with
      | None -> None
      | Some stack ->
          (* Variables can drop out of the conjunction before being picked
             (degenerate combinations); they are unconstrained by the
             remainder, so pin them to zero up front. *)
          let eliminated =
            List.fold_left (fun s (v, _) -> Var.Set.add v s) Var.Set.empty stack
          in
          let stray = Var.Set.diff (Linformula.conj_vars conj) eliminated in
          let initial =
            Var.Set.fold (fun v env -> Var.Map.add v Q.zero env) stray Var.Map.empty
          in
          (* stack has the last-eliminated variable first: assign in order *)
          let assign env (v, atoms) =
            let lower = ref None and upper = ref None and forced = ref None in
            List.iter
              (fun a ->
                let e = Linexpr.eval_partial (Linconstr.expr a) env in
                let c = Linexpr.coeff e v in
                let r = Linexpr.constant e in
                (* c*v + r op 0 *)
                let b = Q.neg (Q.div r c) in
                match Linconstr.op a with
                | Linconstr.Eq -> forced := Some b
                | Linconstr.Le | Linconstr.Lt ->
                    let strict = Linconstr.op a = Linconstr.Lt in
                    if Q.sign c > 0 then begin
                      (* v <= b: keep the tightest upper bound *)
                      match !upper with
                      | Some u when Q.lt u.value b -> ()
                      | Some u when Q.equal u.value b && (u.strict || not strict) -> ()
                      | _ -> upper := Some { value = b; strict }
                    end
                    else begin
                      match !lower with
                      | Some l when Q.gt l.value b -> ()
                      | Some l when Q.equal l.value b && (l.strict || not strict) -> ()
                      | _ -> lower := Some { value = b; strict }
                    end)
              atoms;
            let x =
              match !forced with
              | Some v -> v
              | None -> (
                  match (!lower, !upper) with
                  | None, None -> Q.zero
                  | Some l, None -> Q.add l.value Q.one
                  | None, Some u -> Q.sub u.value Q.one
                  | Some l, Some u ->
                      if Q.equal l.value u.value then l.value
                      else Q.mid l.value u.value)
            in
            Var.Map.add v x env
          in
          Some (List.fold_left assign initial stack))

let sample_point_dnf d =
  List.fold_left
    (fun acc conj -> match acc with Some _ -> acc | None -> sample_point conj)
    None d

(* ------------------------------------------------------------------ *)
(* Emptiness witnesses and semantic equivalence                        *)
(* ------------------------------------------------------------------ *)

let witness f =
  match sample_point_dnf (qe f) with
  | None -> None
  | Some pt ->
      (* a disjunct need not mention every free variable of [f]; the ones it
         leaves out are unconstrained there, so pin them to zero to return a
         total point *)
      Some
        (Var.Set.fold
           (fun v env ->
             if Var.Map.mem v env then env else Var.Map.add v Q.zero env)
           (Linformula.free_vars f) pt)

let difference_witness f g = witness (Formula.And (f, Formula.Not g))

let equivalence_witness f g =
  match difference_witness f g with
  | Some _ as w -> w
  | None -> difference_witness g f
