open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_poly
module T = Cqa_telemetry.Telemetry

(* Telemetry probes (zero-cost while disabled): runtime linearity probes,
   the quantified-subformula truth memo, section/QE entries, and
   formula-size stats per set-valued evaluation. *)
let tm_runtime_probes = T.counter "eval.runtime_probes"
let tm_holds_memo_hit = T.counter "eval.holds_memo.hit"
let tm_holds_memo_miss = T.counter "eval.holds_memo.miss"
let tm_sections = T.counter "eval.sections"
let tm_eval_set = T.counter "eval.eval_set.calls"
let tm_nodes_total = T.counter "eval.formula_nodes_total"
let tm_nodes_max = T.counter "eval.formula_nodes_max"

let rec formula_nodes (f : Ast.formula) =
  match f with
  | Ast.True | Ast.False | Ast.Rel _ -> 1
  | Ast.Cmp (_, a, b) -> 1 + term_nodes a + term_nodes b
  | Ast.Not g -> 1 + formula_nodes g
  | Ast.And (g, h) | Ast.Or (g, h) -> 1 + formula_nodes g + formula_nodes h
  | Ast.Exists (_, g) | Ast.Forall (_, g) -> 1 + formula_nodes g

and term_nodes (t : Ast.term) =
  match t with
  | Ast.Const _ | Ast.TVar _ -> 1
  | Ast.Add (a, b) | Ast.Mul (a, b) -> 1 + term_nodes a + term_nodes b
  | Ast.Sum s ->
      1 + formula_nodes s.Ast.guard + formula_nodes s.Ast.gamma
      + formula_nodes s.Ast.end_body

exception Unsupported of string

let unsupported msg = raise (Unsupported msg)

(* Memoization of quantified-subformula truth.  Keys pair a formula with the
   values of its free variables; formulas are identified *physically* (the
   same AST node re-tested at many bindings is the hot case, and structural
   hashing of large shared formula prefixes degenerates).  The table is
   reset whenever the database changes. *)
module Holds_key = struct
  type t = int * (Var.t * Q.t) list

  let equal (i1, b1) (i2, b2) =
    i1 = i2
    && List.equal (fun (v1, q1) (v2, q2) -> Var.equal v1 v2 && Q.equal q1 q2) b1 b2

  let hash (i, b) =
    List.fold_left
      (fun acc (v, q) -> (acc * 65599) lxor Hashtbl.hash v lxor Q.hash q)
      i b
end

module Holds_tbl = Cqa_conc.Striped_tbl.Make (Holds_key)

(* The memo is shared across domains (the Theorem-4 sampling estimators
   test membership in parallel) and lock-striped on the binding hash:
   samplers evaluating the same formula at different points land on
   different stripes instead of one global mutex.  The formula-id registry
   and database witness below stay behind [memo_lock] — they are touched
   only where the memo is consulted, at quantified [holds] steps. *)
let holds_memo : bool Holds_tbl.t =
  Holds_tbl.create ~name:"eval.holds_memo" ~cap:100_000
    ~evict:Cqa_conc.Striped_tbl.Reset ()

let memo_lock = Mutex.create ()

(* Physical-identity registry of memoized formula nodes.  A hashtable over
   [( == )] replaces the former association list, whose linear scan sat on
   the hot path of every memoized [holds] call; ids come from a monotonic
   counter so a registry reset can never reissue an id that is still keying
   entries in [holds_memo]. *)
module Fid_key = struct
  type t = Ast.formula

  let equal = ( == )
  let hash = Hashtbl.hash
end

module Fid_tbl = Hashtbl.Make (Fid_key)

let formula_ids : int Fid_tbl.t = Fid_tbl.create 256
let formula_id_next = ref 0

let formula_id f =
  Mutex.lock memo_lock;
  let i =
    match Fid_tbl.find_opt formula_ids f with
    | Some i -> i
    | None ->
        (* runaway distinct formulas: shed the registry, keep ids fresh *)
        if Fid_tbl.length formula_ids > 4096 then Fid_tbl.reset formula_ids;
        let i = !formula_id_next in
        incr formula_id_next;
        Fid_tbl.add formula_ids f i;
        i
  in
  Mutex.unlock memo_lock;
  i

(* The memo answers for one database state: a change of identity or of
   version ([Db.apply_update] edits in place) drops it. *)
let memo_db : Obj.t ref = ref (Obj.repr ())
let memo_version = ref 0

let refresh_memo db =
  let r = Obj.repr db and v = Db.version db in
  Mutex.lock memo_lock;
  if not (!memo_db == r && !memo_version = v) then begin
    Holds_tbl.reset holds_memo;
    Fid_tbl.reset formula_ids;
    formula_id_next := 0;
    memo_db := r;
    memo_version := v
  end;
  Mutex.unlock memo_lock

let clear_memo () =
  Mutex.protect memo_lock (fun () ->
      Holds_tbl.reset holds_memo;
      Fid_tbl.reset formula_ids;
      formula_id_next := 0;
      memo_db := Obj.repr ())

let memo_entries () = Holds_tbl.length holds_memo

let holds_memo_find key = Holds_tbl.find_opt holds_memo key
let holds_memo_add key b = Holds_tbl.replace holds_memo key b

(* ------------------------------------------------------------------ *)
(* Term evaluation and reduction of terms to polynomials               *)
(* ------------------------------------------------------------------ *)

(* Reduce a term under an environment to a multivariate polynomial in the
   remaining variables, evaluating closed summation sub-terms to
   constants. *)
let rec term_to_poly db env t =
  match t with
  | Ast.Const c -> Mpoly.constant c
  | Ast.TVar x -> (
      match Var.Map.find_opt x env with
      | Some c -> Mpoly.constant c
      | None -> Mpoly.var x)
  | Ast.Add (a, b) -> Mpoly.add (term_to_poly db env a) (term_to_poly db env b)
  | Ast.Mul (a, b) -> Mpoly.mul (term_to_poly db env a) (term_to_poly db env b)
  | Ast.Sum _ ->
      let frees = Ast.term_free_vars t in
      if Var.Set.for_all (fun x -> Var.Map.mem x env) frees then
        Mpoly.constant (eval_term db env t)
      else
        unsupported
          "summation term with parameters not bound by the environment"

and eval_term db env t =
  match t with
  | Ast.Const c -> c
  | Ast.TVar x -> (
      match Var.Map.find_opt x env with
      | Some c -> c
      | None -> invalid_arg ("Eval.eval_term: unbound variable " ^ Var.name x))
  | Ast.Add (a, b) -> Q.add (eval_term db env a) (eval_term db env b)
  | Ast.Mul (a, b) -> Q.mul (eval_term db env a) (eval_term db env b)
  | Ast.Sum s ->
      let tuples = range_restricted_tuples db env s in
      List.fold_left
        (fun acc tup ->
          match gamma_value db env s tup with
          | Some x -> Q.add acc x
          | None -> acc)
        Q.zero tuples

(* ------------------------------------------------------------------ *)
(* Reduction to FO + LIN                                               *)
(* ------------------------------------------------------------------ *)

(* Inline a semi-linear relation applied to argument variables/constants as
   a quantifier-free linear formula. *)
and inline_relation db env r args =
  match Db.as_semilinear db r with
  | None -> unsupported ("semi-algebraic relation " ^ r ^ " in linear reduction")
  | Some s ->
      let coords = Semilinear.vars s in
      if Array.length coords <> List.length args then
        invalid_arg ("Eval: arity mismatch for " ^ r);
      let subst_atom atom =
        let e = Linconstr.expr atom in
        let e' =
          Array.to_list coords
          |> List.mapi (fun i cv -> (i, cv))
          |> List.fold_left
               (fun acc (i, cv) ->
                 let arg = List.nth args i in
                 let replacement =
                   match Var.Map.find_opt arg env with
                   | Some c -> Linexpr.const c
                   | None -> Linexpr.var arg
                 in
                 Linexpr.subst acc cv replacement)
               e
        in
        Linconstr.make e' (Linconstr.op atom)
      in
      Linformula.of_dnf
        (List.map (List.map subst_atom) (Semilinear.dnf s))

and reduce_linear db env (f : Ast.formula) : Linformula.t =
  match f with
  | Ast.True -> Formula.True
  | Ast.False -> Formula.False
  | Ast.Cmp (op, a, b) -> (
      let p = Mpoly.sub (term_to_poly db env a) (term_to_poly db env b) in
      match Mpoly.to_linexpr p with
      | None -> unsupported "nonlinear atom in linear reduction"
      | Some e ->
          let op' =
            match op with
            | Ast.Ceq -> Linconstr.Eq
            | Ast.Clt -> Linconstr.Lt
            | Ast.Cle -> Linconstr.Le
          in
          Formula.Atom (Linconstr.make e op'))
  | Ast.Rel (r, args) ->
      (* coordinate variables of the stored relation must not leak: the
         inlined formula is over the argument variables only *)
      inline_relation db env r args
  | Ast.Not g -> Formula.Not (reduce_linear db env g)
  | Ast.And (g, h) -> Formula.And (reduce_linear db env g, reduce_linear db env h)
  | Ast.Or (g, h) -> Formula.Or (reduce_linear db env g, reduce_linear db env h)
  | Ast.Exists (x, g) ->
      Formula.Exists (x, reduce_linear db (Var.Map.remove x env) g)
  | Ast.Forall (x, g) ->
      Formula.Forall (x, reduce_linear db (Var.Map.remove x env) g)

(* ------------------------------------------------------------------ *)
(* Pointwise truth                                                     *)
(* ------------------------------------------------------------------ *)

and holds db env (f : Ast.formula) : bool =
  match f with
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Cmp (op, a, b) -> (
      let va = eval_term db env a and vb = eval_term db env b in
      match op with
      | Ast.Ceq -> Q.equal va vb
      | Ast.Clt -> Q.lt va vb
      | Ast.Cle -> Q.leq va vb)
  | Ast.Rel (r, args) ->
      let tup =
        Array.of_list
          (List.map
             (fun x ->
               match Var.Map.find_opt x env with
               | Some c -> c
               | None -> invalid_arg ("Eval.holds: unbound variable " ^ Var.name x))
             args)
      in
      Db.mem_tuple db r tup
  | Ast.Not g -> not (holds db env g)
  | Ast.And (g, h) -> holds db env g && holds db env h
  | Ast.Or (g, h) -> holds db env g || holds db env h
  | Ast.Exists _ | Ast.Forall _ ->
      (* quantifiers require the symbolic path; results are memoized per
         (formula, relevant environment) because guards like the polygon
         triangulation formula re-test the same quantified subformulas at
         the same bindings many times *)
      refresh_memo db;
      let frees = Ast.free_vars f in
      let key =
        ( formula_id f,
          Var.Set.fold
            (fun v acc ->
              match Var.Map.find_opt v env with
              | Some c -> (v, c) :: acc
              | None -> acc)
            frees [] )
      in
      (match holds_memo_find key with
      | Some b ->
          T.incr tm_holds_memo_hit;
          b
      | None ->
          T.incr tm_holds_memo_miss;
          let b = Fourier_motzkin.sat (reduce_linear db env f) in
          holds_memo_add key b;
          b)

(* ------------------------------------------------------------------ *)
(* Sections and END                                                    *)
(* ------------------------------------------------------------------ *)

and section db env y (f : Ast.formula) : Cell1.t =
  T.incr tm_sections;
  let env = Var.Map.remove y env in
  let lin = reduce_linear db env f in
  let d = Fourier_motzkin.qe lin in
  (* the result must involve only y *)
  let used = Linformula.dnf_vars d in
  if not (Var.Set.subset used (Var.Set.singleton y)) then
    invalid_arg "Eval.section: free variables beyond the section variable";
  Cell1.of_dnf y d

and end_points db env y f = Cell1.endpoints (section db env y f)

(* ------------------------------------------------------------------ *)
(* Range-restricted summation                                          *)
(* ------------------------------------------------------------------ *)

and range_restricted_tuples db env (s : Ast.sum_spec) =
  let endpoints = end_points db env s.Ast.end_y s.Ast.end_body in
  if s.Ast.w = [] then invalid_arg "Eval: empty summation tuple";
  (* Split the guard into conjuncts and check each one as soon as all its
     summation variables are bound: turns the naive |END|^k enumeration
     into a pruned search (essential for guards like the paper's polygon
     triangulation formula). *)
  let rec conjuncts = function
    | Ast.And (f, g) -> conjuncts f @ conjuncts g
    | f -> [ f ]
  in
  let wset = Var.Set.of_list s.Ast.w in
  let tagged =
    List.map
      (fun c -> (c, Var.Set.inter (Ast.free_vars c) wset))
      (conjuncts s.Ast.guard)
  in
  let static = List.filter (fun (_, ws) -> Var.Set.is_empty ws) tagged in
  if not (List.for_all (fun (c, _) -> holds db env c) static) then []
  else begin
    let rec search bound env' = function
      | [] -> [ Array.of_list (List.map (fun x -> Var.Map.find x env') s.Ast.w) ]
      | x :: rest ->
          List.concat_map
            (fun c ->
              let env'' = Var.Map.add x c env' in
              let bound' = Var.Set.add x bound in
              let ok =
                List.for_all
                  (fun (conjunct, ws) ->
                    Var.Set.is_empty ws
                    || (not (Var.Set.subset ws bound'))
                    || Var.Set.subset ws bound
                    || holds db env'' conjunct)
                  tagged
              in
              if ok then search bound' env'' rest else [])
            endpoints
    in
    search Var.Set.empty env s.Ast.w
  end

and gamma_value db env (s : Ast.sum_spec) tup =
  let env' =
    List.fold_left2
      (fun e x c -> Var.Map.add x c e)
      env s.Ast.w (Array.to_list tup)
  in
  let cell = section db env' s.Ast.gamma_var s.Ast.gamma in
  match Cell1.components cell with
  | [] -> None
  | [ c ] -> (
      match (c.Cell1.lo, c.Cell1.hi) with
      | Cell1.Incl a, Cell1.Incl b when Q.equal a b -> Some a
      | _ ->
          invalid_arg
            "Eval: gamma is not deterministic (non-singleton output)")
  | _ -> invalid_arg "Eval: gamma is not deterministic (multiple outputs)"

(* ------------------------------------------------------------------ *)
(* Set-valued evaluation (Lemma 4 closure)                             *)
(* ------------------------------------------------------------------ *)

let eval_set db coords (f : Ast.formula) =
  if T.enabled () then begin
    T.incr tm_eval_set;
    let n = formula_nodes f in
    T.add tm_nodes_total n;
    T.set_max tm_nodes_max n
  end;
  let lin = reduce_linear db Var.Map.empty f in
  Semilinear.of_formula coords lin

(* The runtime linearity probe: discover whether a query is linear-reducible
   by attempting the reduction and catching [Unsupported].  The static
   analyzer's fragment pass makes this discovery ahead of time
   (Dispatch.Exact_semilinear); the counter lets callers and tests observe
   which path ran. *)
let runtime_probe_count = ref 0
let runtime_probes () = !runtime_probe_count

let try_eval_set db coords (f : Ast.formula) =
  incr runtime_probe_count;
  T.incr tm_runtime_probes;
  match eval_set db coords f with
  | s -> Some s
  | exception Unsupported _ -> None

(* ------------------------------------------------------------------ *)
(* Semi-algebraic sections                                             *)
(* ------------------------------------------------------------------ *)

let rec to_semialg_formula db env (f : Ast.formula) : Semialg.formula =
  match f with
  | Ast.True -> Formula.True
  | Ast.False -> Formula.False
  | Ast.Cmp (op, a, b) ->
      let p = Mpoly.sub (term_to_poly db env a) (term_to_poly db env b) in
      let p = Mpoly.eval_partial p env in
      let op' =
        match op with Ast.Ceq -> Semialg.Eq | Ast.Clt -> Semialg.Lt | Ast.Cle -> Semialg.Le
      in
      Formula.Atom { Semialg.poly = p; op = op' }
  | Ast.Rel (r, args) ->
      let s = Db.as_semialg db r in
      let coords = Semialg.vars s in
      if Array.length coords <> List.length args then
        invalid_arg ("Eval: arity mismatch for " ^ r);
      let subst_poly p =
        Array.to_list coords
        |> List.mapi (fun i cv -> (i, cv))
        |> List.fold_left
             (fun acc (i, cv) ->
               let arg = List.nth args i in
               let repl =
                 match Var.Map.find_opt arg env with
                 | Some c -> Mpoly.constant c
                 | None -> Mpoly.var arg
               in
               Mpoly.subst acc cv repl)
             p
      in
      Formula.disj
        (List.map
           (fun conj ->
             Formula.conj
               (List.map
                  (fun (a : Semialg.atom) ->
                    Formula.Atom { a with Semialg.poly = subst_poly a.Semialg.poly })
                  conj))
           (Semialg.dnf s))
  | Ast.Not g -> Formula.Not (to_semialg_formula db env g)
  | Ast.And (g, h) ->
      Formula.And (to_semialg_formula db env g, to_semialg_formula db env h)
  | Ast.Or (g, h) ->
      Formula.Or (to_semialg_formula db env g, to_semialg_formula db env h)
  | Ast.Exists _ | Ast.Forall _ ->
      unsupported "quantifier in semi-algebraic section (no full real QE)"

let section_alg db env y f =
  let env = Var.Map.remove y env in
  let saf = to_semialg_formula db env f in
  let sa = Semialg.of_qf_formula [| y |] saf in
  Semialg.last_axis_section sa [||]
