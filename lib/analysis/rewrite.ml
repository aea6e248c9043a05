open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_poly
open Cqa_core
module T = Cqa_telemetry.Telemetry

(* plan.* namespace: rewrite traffic depends on what reaches the planner,
   like the cache counters, and is exempt from the determinism contract. *)
let tm_fired = T.counter "plan.rewrite.fired"
let tm_atoms_elim = T.counter "plan.rewrite.atoms_eliminated"
let tm_passes = T.counter "plan.rewrite.passes"

type step = {
  rule : string;
  path : string list;
  before : string;
  after : string;
}

type refutation = {
  refuted_rule : string;
  refuted_path : string list;
  witness : Q.t Var.Map.t;
}

type result = {
  rewritten : Ast.formula;
  steps : step list;
  refuted : refutation list;
  passes : int;
  fired : int;
  atoms_before : int;
  atoms_after : int;
}

let rule_codes =
  [
    "rw-absorption"; "rw-and-unit"; "rw-atom-canon"; "rw-comm-sort";
    "rw-const-fold"; "rw-dead-branch"; "rw-empty-sum"; "rw-guard-hoist";
    "rw-idempotent"; "rw-neg-atom"; "rw-not"; "rw-or-unit"; "rw-quant-shrink";
    "rw-quant-unused"; "rw-unsat-conj";
  ]

(* ------------------------------------------------------------------ *)
(* Structural total order (for the canonical operand sort)             *)
(* ------------------------------------------------------------------ *)

let term_tag = function
  | Ast.Const _ -> 0
  | Ast.TVar _ -> 1
  | Ast.Add _ -> 2
  | Ast.Mul _ -> 3
  | Ast.Sum _ -> 4

let formula_tag = function
  | Ast.True -> 0
  | Ast.False -> 1
  | Ast.Cmp _ -> 2
  | Ast.Rel _ -> 3
  | Ast.Not _ -> 4
  | Ast.And _ -> 5
  | Ast.Or _ -> 6
  | Ast.Exists _ -> 7
  | Ast.Forall _ -> 8

let cmp_tag = function Ast.Ceq -> 0 | Ast.Clt -> 1 | Ast.Cle -> 2

let rec compare_list cmp a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> ( match cmp x y with 0 -> compare_list cmp xs ys | c -> c)

let rec compare_term (a : Ast.term) (b : Ast.term) =
  match (a, b) with
  | Ast.Const p, Ast.Const q -> Q.compare p q
  | Ast.TVar x, Ast.TVar y -> Var.compare x y
  | Ast.Add (a1, a2), Ast.Add (b1, b2) | Ast.Mul (a1, a2), Ast.Mul (b1, b2) -> (
      match compare_term a1 b1 with 0 -> compare_term a2 b2 | c -> c)
  | Ast.Sum s, Ast.Sum t ->
      let cs =
        [
          (fun () -> Var.compare s.Ast.gamma_var t.Ast.gamma_var);
          (fun () -> compare_list Var.compare s.Ast.w t.Ast.w);
          (fun () -> Var.compare s.Ast.end_y t.Ast.end_y);
          (fun () -> compare_formula s.Ast.gamma t.Ast.gamma);
          (fun () -> compare_formula s.Ast.guard t.Ast.guard);
          (fun () -> compare_formula s.Ast.end_body t.Ast.end_body);
        ]
      in
      List.fold_left (fun acc c -> if acc <> 0 then acc else c ()) 0 cs
  | _ -> compare (term_tag a) (term_tag b)

and compare_formula (f : Ast.formula) (g : Ast.formula) =
  match (f, g) with
  | Ast.True, Ast.True | Ast.False, Ast.False -> 0
  | Ast.Cmp (o1, a1, b1), Ast.Cmp (o2, a2, b2) -> (
      match compare (cmp_tag o1) (cmp_tag o2) with
      | 0 -> (
          match compare_term a1 a2 with 0 -> compare_term b1 b2 | c -> c)
      | c -> c)
  | Ast.Rel (r1, v1), Ast.Rel (r2, v2) -> (
      match String.compare r1 r2 with
      | 0 -> compare_list Var.compare v1 v2
      | c -> c)
  | Ast.Not a, Ast.Not b -> compare_formula a b
  | Ast.And (a1, a2), Ast.And (b1, b2) | Ast.Or (a1, a2), Ast.Or (b1, b2) -> (
      match compare_formula a1 b1 with 0 -> compare_formula a2 b2 | c -> c)
  | Ast.Exists (x, a), Ast.Exists (y, b) | Ast.Forall (x, a), Ast.Forall (y, b)
    -> (
      match Var.compare x y with 0 -> compare_formula a b | c -> c)
  | _ -> compare (formula_tag f) (formula_tag g)

(* ------------------------------------------------------------------ *)
(* Side-condition predicates                                           *)
(* ------------------------------------------------------------------ *)

(* Pointwise-total operands: no summation term and no quantifier anywhere,
   so [Eval.holds] cannot raise on them and reordering a chain cannot
   change evaluation behaviour (only [&&]/[||] shortcuts move). *)
let rec pointwise_total (f : Ast.formula) =
  match f with
  | Ast.True | Ast.False | Ast.Rel _ -> true
  | Ast.Cmp (_, a, b) -> sum_free a && sum_free b
  | Ast.Not g -> pointwise_total g
  | Ast.And (g, h) | Ast.Or (g, h) -> pointwise_total g && pointwise_total h
  | Ast.Exists _ | Ast.Forall _ -> false

and sum_free (t : Ast.term) =
  match t with
  | Ast.Const _ | Ast.TVar _ -> true
  | Ast.Add (a, b) | Ast.Mul (a, b) -> sum_free a && sum_free b
  | Ast.Sum _ -> false

(* ------------------------------------------------------------------ *)
(* The rewrite context: trace, verification, counters                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  db : Db.t option;
  verify : bool;
  trace : bool;
  mutable steps : step list;  (* reversed *)
  mutable refuted : refutation list;  (* reversed *)
  mutable fired : int;
}

let render_f f = Format.asprintf "%a" Ast.pp f
let render_t t = Format.asprintf "%a" Ast.pp_term t

(* [before]/[after] are thunks: rendering a step costs two formatter runs,
   so it must not happen on the untraced hot path (every plan-cache
   lookup). *)
let record ctx rule path before after =
  ctx.fired <- ctx.fired + 1;
  if ctx.trace then
    ctx.steps <- { rule; path; before = before (); after = after () } :: ctx.steps

(* Every applied rewrite is re-checked on the spot in verify mode: formula
   rewrites as set equivalence over their free variables, term rewrites as
   validity of [before = after].  [Unknown] verdicts (out-of-fragment
   subtrees) are tolerated — only a [Distinct] witness is a refutation. *)
let check_f ctx rule path before after =
  if ctx.verify then
    match Equiv.check ?db:ctx.db before after with
    | Equiv.Distinct witness ->
        ctx.refuted <-
          { refuted_rule = rule; refuted_path = path; witness } :: ctx.refuted
    | Equiv.Equal | Equiv.Unknown _ -> ()

let check_t ctx rule path before after =
  if ctx.verify then
    check_f ctx rule path (Ast.Cmp (Ast.Ceq, before, after)) Ast.True

let fire_f ctx rule path before after =
  record ctx rule path
    (fun () -> render_f before)
    (fun () -> render_f after);
  check_f ctx rule path before after;
  after

let fire_t ctx rule path before after =
  record ctx rule path
    (fun () -> render_t before)
    (fun () -> render_t after);
  check_t ctx rule path before after;
  after

(* ------------------------------------------------------------------ *)
(* Chain helpers                                                       *)
(* ------------------------------------------------------------------ *)

let rec flatten_and (f : Ast.formula) acc =
  match f with
  | Ast.And (g, h) -> flatten_and g (flatten_and h acc)
  | _ -> f :: acc

let rec flatten_or (f : Ast.formula) acc =
  match f with
  | Ast.Or (g, h) -> flatten_or g (flatten_or h acc)
  | _ -> f :: acc

let build_and = function
  | [] -> Ast.True
  | f :: fs -> List.fold_left (fun acc g -> Ast.And (acc, g)) f fs

let build_or = function
  | [] -> Ast.False
  | f :: fs -> List.fold_left (fun acc g -> Ast.Or (acc, g)) f fs

let dedup_stable fs =
  let rec go seen = function
    | [] -> []
    | f :: rest ->
        if List.exists (Plan.equal_formula f) seen then go seen rest
        else f :: go (f :: seen) rest
  in
  go [] fs

(* Interval refutation of a conjunction: some variable is pinned to the
   empty interval.  Sound whatever the unknown flag says — [bounds_of] is
   an over-approximation, so an empty enclosure means an empty set. *)
let interval_unsat ?db f =
  Var.Set.exists
    (fun v -> match Range.bounds_of ?db v f with Range.Empty, _ -> true | _ -> false)
    (Ast.free_vars f)

(* ------------------------------------------------------------------ *)
(* Atom canonicalization                                               *)
(* ------------------------------------------------------------------ *)

let linconstr_of_cmp op a b =
  if sum_free a && sum_free b then
    match Ast.to_mpoly Ast.(a -! b) with
    | None -> None
    | Some p -> (
        match Mpoly.to_linexpr p with
        | None -> None
        | Some e ->
            let op' =
              match op with
              | Ast.Ceq -> Linconstr.Eq
              | Ast.Clt -> Linconstr.Lt
              | Ast.Cle -> Linconstr.Le
            in
            Some (Linconstr.make e op'))
  else None

(* The canonical atom must be a fixpoint of the term-level constant folds:
   [of_linformula] renders unit coefficients and first powers as
   [Mul (_, Const 1)], which the folds would otherwise undo — and the
   canonicalizer redo — on every pass. *)
let rec fold_term (t : Ast.term) : Ast.term =
  match t with
  | Ast.Const _ | Ast.TVar _ | Ast.Sum _ -> t
  | Ast.Add (a, b) -> (
      match (fold_term a, fold_term b) with
      | Ast.Const p, Ast.Const q -> Ast.Const (Q.add p q)
      | Ast.Const z, u when Q.is_zero z -> u
      | u, Ast.Const z when Q.is_zero z -> u
      | a', b' -> Ast.Add (a', b'))
  | Ast.Mul (a, b) -> (
      match (fold_term a, fold_term b) with
      | Ast.Const p, Ast.Const q -> Ast.Const (Q.mul p q)
      | (Ast.Const z, _ | _, Ast.Const z) when Q.is_zero z -> Ast.Const Q.zero
      | Ast.Const o, u when Q.equal o Q.one -> u
      | u, Ast.Const o when Q.equal o Q.one -> u
      | a', b' -> Ast.Mul (a', b'))

let atom_of_linconstr c =
  match Ast.of_linformula (Cqa_logic.Formula.Atom c) with
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, fold_term a, fold_term b)
  | f -> f

let canon_atom ctx path (f : Ast.formula) =
  match f with
  | Ast.Cmp (op, a, b) -> (
      match linconstr_of_cmp op a b with
      | None -> f
      | Some c -> (
          match Linconstr.is_trivial c with
          | Some bv ->
              fire_f ctx "rw-const-fold" path f (if bv then Ast.True else Ast.False)
          | None ->
              let canon = atom_of_linconstr c in
              if Plan.equal_formula canon f then f
              else fire_f ctx "rw-atom-canon" path f canon))
  | _ -> f

(* ------------------------------------------------------------------ *)
(* One bottom-up pass                                                  *)
(* ------------------------------------------------------------------ *)

let rec rw_f ctx path (f : Ast.formula) : Ast.formula =
  match f with
  | Ast.True | Ast.False | Ast.Rel _ -> f
  | Ast.Cmp (op, a, b) ->
      let a' = rw_t ctx (path @ [ "cmp.l" ]) a
      and b' = rw_t ctx (path @ [ "cmp.r" ]) b in
      canon_atom ctx path (Ast.Cmp (op, a', b'))
  | Ast.Not g -> (
      let g' = rw_f ctx (path @ [ "not" ]) g in
      match g' with
      | Ast.True -> fire_f ctx "rw-not" path (Ast.Not g') Ast.False
      | Ast.False -> fire_f ctx "rw-not" path (Ast.Not g') Ast.True
      | Ast.Not h -> fire_f ctx "rw-not" path (Ast.Not g') h
      | Ast.Cmp (op, a, b) -> (
          (* complement of a linear inequality is one atom; equalities
             would become a disjunction and are left alone *)
          match linconstr_of_cmp op a b with
          | Some c when Linconstr.op c <> Linconstr.Eq -> (
              match Linconstr.negate c with
              | [ c' ] ->
                  fire_f ctx "rw-neg-atom" path (Ast.Not g')
                    (atom_of_linconstr c')
              | _ -> Ast.Not g')
          | _ -> Ast.Not g')
      | _ -> Ast.Not g')
  | Ast.And _ ->
      let fs = flatten_and f [] in
      let fs =
        List.mapi
          (fun i g -> rw_f ctx (path @ [ Printf.sprintf "and.%d" i ]) g)
          fs
      in
      (* re-flatten: operand rewrites may have exposed nested chains *)
      let fs = List.concat_map (fun g -> flatten_and g []) fs in
      simplify_and ctx path (build_and fs) fs
  | Ast.Or _ ->
      let fs = flatten_or f [] in
      let fs =
        List.mapi
          (fun i g -> rw_f ctx (path @ [ Printf.sprintf "or.%d" i ]) g)
          fs
      in
      let fs = List.concat_map (fun g -> flatten_or g []) fs in
      simplify_or ctx path (build_or fs) fs
  | Ast.Exists (x, g) ->
      let g' =
        rw_f ctx (path @ [ Printf.sprintf "exists:%s" (Var.name x) ]) g
      in
      quant ctx path ~forall:false x g'
  | Ast.Forall (x, g) ->
      let g' =
        rw_f ctx (path @ [ Printf.sprintf "forall:%s" (Var.name x) ]) g
      in
      quant ctx path ~forall:true x g'

and simplify_and ctx path before fs =
  if List.exists (function Ast.False -> true | _ -> false) fs then
    fire_f ctx "rw-and-unit" path before Ast.False
  else begin
    let fs' = List.filter (function Ast.True -> false | _ -> true) fs in
    let fs' =
      if List.compare_lengths fs' fs <> 0 then begin
        ignore (fire_f ctx "rw-and-unit" path before (build_and fs'));
        fs'
      end
      else fs
    in
    let deduped = dedup_stable fs' in
    let fs' =
      if List.compare_lengths deduped fs' <> 0 then begin
        ignore (fire_f ctx "rw-idempotent" path before (build_and deduped));
        deduped
      end
      else fs'
    in
    (* absorption: a conjunct that is a disjunction containing another
       conjunct verbatim is implied by it *)
    let absorbed =
      List.filter
        (fun d ->
          match d with
          | Ast.Or _ ->
              let ds = flatten_or d [] in
              not
                (List.exists
                   (fun c ->
                     (not (Plan.equal_formula c d))
                     && List.exists (Plan.equal_formula c) ds)
                   fs')
          | _ -> true)
        fs'
    in
    let fs' =
      if List.compare_lengths absorbed fs' <> 0 then begin
        ignore (fire_f ctx "rw-absorption" path before (build_and absorbed));
        absorbed
      end
      else fs'
    in
    match fs' with
    | [] -> build_and fs'
    | [ f ] -> f
    | _ ->
        let conj = build_and fs' in
        if interval_unsat ?db:ctx.db conj then
          fire_f ctx "rw-unsat-conj" path conj Ast.False
        else if List.for_all pointwise_total fs' then begin
          let sorted = List.stable_sort compare_formula fs' in
          if List.for_all2 Plan.equal_formula sorted fs' then conj
          else fire_f ctx "rw-comm-sort" path conj (build_and sorted)
        end
        else conj
  end

and simplify_or ctx path before fs =
  if List.exists (function Ast.True -> true | _ -> false) fs then
    fire_f ctx "rw-or-unit" path before Ast.True
  else begin
    let fs' = List.filter (function Ast.False -> false | _ -> true) fs in
    let fs' =
      if List.compare_lengths fs' fs <> 0 then begin
        ignore (fire_f ctx "rw-or-unit" path before (build_or fs'));
        fs'
      end
      else fs
    in
    (* disjuncts the interval pass refutes are unreachable *)
    let live =
      List.filter
        (fun d ->
          match Range.truth d with
          | Some false -> false
          | _ -> not (interval_unsat ?db:ctx.db d))
        fs'
    in
    let fs' =
      if List.compare_lengths live fs' <> 0 then begin
        ignore (fire_f ctx "rw-dead-branch" path before (build_or live));
        live
      end
      else fs'
    in
    let deduped = dedup_stable fs' in
    let fs' =
      if List.compare_lengths deduped fs' <> 0 then begin
        ignore (fire_f ctx "rw-idempotent" path before (build_or deduped));
        deduped
      end
      else fs'
    in
    (* absorption: a disjunct that is a conjunction containing another
       disjunct verbatim is subsumed by it *)
    let absorbed =
      List.filter
        (fun d ->
          match d with
          | Ast.And _ ->
              let ds = flatten_and d [] in
              not
                (List.exists
                   (fun c ->
                     (not (Plan.equal_formula c d))
                     && List.exists (Plan.equal_formula c) ds)
                   fs')
          | _ -> true)
        fs'
    in
    let fs' =
      if List.compare_lengths absorbed fs' <> 0 then begin
        ignore (fire_f ctx "rw-absorption" path before (build_or absorbed));
        absorbed
      end
      else fs'
    in
    match fs' with
    | [] -> build_or fs'
    | [ f ] -> f
    | _ ->
        let disj = build_or fs' in
        if List.for_all pointwise_total fs' then begin
          let sorted = List.stable_sort compare_formula fs' in
          if List.for_all2 Plan.equal_formula sorted fs' then disj
          else fire_f ctx "rw-comm-sort" path disj (build_or sorted)
        end
        else disj
  end

(* Quantifier scope rules.  Both quantifiers push past chain operands that
   do not mention the bound variable, over both connectives: on the
   nonempty domain R,  Qx.(g op h)  with  x free only in h  is
   g op Qx.h  for every combination of  Q in {exists, forall}  and
   op in {/\, \/}. *)
and quant ctx path ~forall x g =
  let mk x g = if forall then Ast.Forall (x, g) else Ast.Exists (x, g) in
  if not (Var.Set.mem x (Ast.free_vars g)) then
    fire_f ctx "rw-quant-unused" path (mk x g) g
  else
    let split flatten build =
      let fs = flatten g [] in
      let indep, dep =
        List.partition (fun c -> not (Var.Set.mem x (Ast.free_vars c))) fs
      in
      if indep = [] then mk x g
      else
        (* dep <> [] since x is free in g *)
        fire_f ctx "rw-quant-shrink" path (mk x g)
          (build (indep @ [ mk x (build dep) ]))
    in
    match g with
    | Ast.And _ -> split flatten_and build_and
    | Ast.Or _ -> split flatten_or build_or
    | _ -> mk x g

and rw_t ctx path (t : Ast.term) : Ast.term =
  match t with
  | Ast.Const _ | Ast.TVar _ -> t
  | Ast.Add (a, b) -> (
      let a' = rw_t ctx (path @ [ "add.l" ]) a
      and b' = rw_t ctx (path @ [ "add.r" ]) b in
      let t' = Ast.Add (a', b') in
      match (a', b') with
      | Ast.Const p, Ast.Const q ->
          fire_t ctx "rw-const-fold" path t' (Ast.Const (Q.add p q))
      | Ast.Const z, u when Q.is_zero z -> fire_t ctx "rw-const-fold" path t' u
      | u, Ast.Const z when Q.is_zero z -> fire_t ctx "rw-const-fold" path t' u
      | _ -> t')
  | Ast.Mul (a, b) -> (
      let a' = rw_t ctx (path @ [ "mul.l" ]) a
      and b' = rw_t ctx (path @ [ "mul.r" ]) b in
      let t' = Ast.Mul (a', b') in
      match (a', b') with
      | Ast.Const p, Ast.Const q ->
          fire_t ctx "rw-const-fold" path t' (Ast.Const (Q.mul p q))
      | Ast.Const z, _ when Q.is_zero z ->
          fire_t ctx "rw-const-fold" path t' (Ast.Const Q.zero)
      | _, Ast.Const z when Q.is_zero z ->
          fire_t ctx "rw-const-fold" path t' (Ast.Const Q.zero)
      | Ast.Const o, u when Q.equal o Q.one ->
          fire_t ctx "rw-const-fold" path t' u
      | u, Ast.Const o when Q.equal o Q.one ->
          fire_t ctx "rw-const-fold" path t' u
      | _ -> t')
  | Ast.Sum s ->
      let spath = path @ [ "sum" ] in
      let gamma = rw_f ctx (spath @ [ "gamma" ]) s.Ast.gamma in
      let guard = rw_f ctx (spath @ [ "guard" ]) s.Ast.guard in
      let end_body = rw_f ctx (spath @ [ "end" ]) s.Ast.end_body in
      let s' = { s with Ast.gamma; guard; end_body } in
      let t' = Ast.Sum s' in
      let guard_empty =
        match Range.truth guard with
        | Some false -> true
        | _ ->
            Var.Set.exists
              (fun v ->
                match Range.bounds_of ?db:ctx.db v guard with
                | Range.Empty, _ -> true
                | _ -> false)
              (Var.Set.union (Var.Set.of_list s'.Ast.w) (Ast.free_vars guard))
      in
      let end_empty =
        match Range.bounds_of ?db:ctx.db s'.Ast.end_y end_body with
        | Range.Empty, _ -> true
        | _ -> ( match Range.truth end_body with Some false -> true | _ -> false)
      in
      if guard_empty || end_empty then
        fire_t ctx "rw-empty-sum" path t' (Ast.Const Q.zero)
      else
        (* hoist summation-tuple-independent guard conjuncts ahead of the
           dependent ones (side condition: pointwise-total conjuncts, so
           the reorder cannot change evaluation behaviour) *)
        let gs = flatten_and guard [] in
        if List.length gs > 1 && List.for_all pointwise_total gs then begin
          let wset = Var.Set.of_list s'.Ast.w in
          let indep, dep =
            List.partition
              (fun c -> Var.Set.disjoint (Ast.free_vars c) wset)
              gs
          in
          if indep = [] || dep = [] then t'
          else
            let hoisted = indep @ dep in
            if List.for_all2 Plan.equal_formula hoisted gs then t'
            else
              fire_t ctx "rw-guard-hoist" path t'
                (Ast.Sum { s' with Ast.guard = build_and hoisted })
        end
        else t'

(* ------------------------------------------------------------------ *)
(* The fixpoint driver                                                 *)
(* ------------------------------------------------------------------ *)

(* The rules are reductive (folding, elimination) or idempotent
   canonicalizations (atom normal forms, sorting, hoisting), so the
   fixpoint is reached in a handful of passes; the cap is a safety valve,
   not a tuning knob. *)
let max_passes = 8

let rewrite ?db ?(verify = false) ?(trace = false) f =
  let ctx = { db; verify; trace; steps = []; refuted = []; fired = 0 } in
  let atoms_before = (Dispatch.profile_formula f).Dispatch.atoms in
  let rec fix passes f =
    if passes >= max_passes then (f, passes)
    else
      let f' = rw_f ctx [] f in
      if Plan.equal_formula f' f then (f, passes + 1) else fix (passes + 1) f'
  in
  let rewritten, passes = fix 0 f in
  let atoms_after = (Dispatch.profile_formula rewritten).Dispatch.atoms in
  if T.enabled () then begin
    T.add tm_fired ctx.fired;
    T.add tm_passes passes;
    if atoms_after < atoms_before then
      T.add tm_atoms_elim (atoms_before - atoms_after)
  end;
  {
    rewritten;
    steps = List.rev ctx.steps;
    refuted = List.rev ctx.refuted;
    passes;
    fired = ctx.fired;
    atoms_before;
    atoms_after;
  }

let formula ?db f = (rewrite ?db f).rewritten

(* The rewriter keeps no memo: the planner's version-keyed memo sits in
   front of it, so a replayed question never reaches the rule fixpoint. *)
let clear_memo () = ()

let diagnostics (res : result) =
  let steps =
    List.map
      (fun s ->
        Diagnostic.info ~code:s.rule ~path:s.path "%s  ==>  %s" s.before
          s.after)
      res.steps
  in
  let refuted =
    List.map
      (fun r ->
        let pt =
          Var.Map.bindings r.witness
          |> List.map (fun (v, q) ->
                 Printf.sprintf "%s=%s" (Var.name v) (Q.to_string q))
          |> String.concat " "
        in
        Diagnostic.error ~code:"rw-unsound" ~path:r.refuted_path
          "rule %s refuted by Equiv at point %s" r.refuted_rule pt)
      res.refuted
  in
  refuted @ steps
