open Cqa_arith
open Cqa_logic
module T = Cqa_telemetry.Telemetry

(* Telemetry: cache traffic and compile cost.  All plan.* counters depend
   on cache state (what was compiled before, what has been evicted) and on
   the wall clock, so they are exempt from the cross-domain determinism
   contract, like the other memo-cache splits. *)
let tm_cache_hit = T.counter "plan.cache.hit"
let tm_cache_miss = T.counter "plan.cache.miss"
let tm_compile_ns = T.counter "plan.compile_ns"
let tm_compile = T.timer "plan.compile"

(* ------------------------------------------------------------------ *)
(* Alpha-normalization                                                 *)
(* ------------------------------------------------------------------ *)

(* Canonical binder names contain '#', which the parser rejects in
   identifiers (the [Var.fresh] convention), so they can never collide
   with a query's own variables.  Binders are renumbered in traversal
   order; free variables are left untouched.  Two alpha-equivalent
   spellings therefore normalize to structurally identical trees, and the
   renaming is semantics-preserving. *)
let canon_binder i = Var.of_string (Printf.sprintf "plan#%d" i)

let alpha_normalize f =
  let n = ref 0 in
  let fresh () =
    let v = canon_binder !n in
    incr n;
    v
  in
  let ren env x =
    match Var.Map.find_opt x env with Some y -> y | None -> x
  in
  let rec gof env (f : Ast.formula) : Ast.formula =
    match f with
    | Ast.True | Ast.False -> f
    | Ast.Cmp (op, a, b) -> Ast.Cmp (op, got env a, got env b)
    | Ast.Rel (r, args) -> Ast.Rel (r, List.map (ren env) args)
    | Ast.Not g -> Ast.Not (gof env g)
    | Ast.And (g, h) -> Ast.And (gof env g, gof env h)
    | Ast.Or (g, h) -> Ast.Or (gof env g, gof env h)
    | Ast.Exists (x, g) ->
        let x' = fresh () in
        Ast.Exists (x', gof (Var.Map.add x x' env) g)
    | Ast.Forall (x, g) ->
        let x' = fresh () in
        Ast.Forall (x', gof (Var.Map.add x x' env) g)
  and got env (t : Ast.term) : Ast.term =
    match t with
    | Ast.Const _ -> t
    | Ast.TVar x -> Ast.TVar (ren env x)
    | Ast.Add (a, b) -> Ast.Add (got env a, got env b)
    | Ast.Mul (a, b) -> Ast.Mul (got env a, got env b)
    | Ast.Sum s ->
        let w' = List.map (fun _ -> fresh ()) s.Ast.w in
        let envw =
          List.fold_left2
            (fun e x x' -> Var.Map.add x x' e)
            env s.Ast.w w'
        in
        let guard = gof envw s.Ast.guard in
        let gv' = fresh () in
        let gamma = gof (Var.Map.add s.Ast.gamma_var gv' envw) s.Ast.gamma in
        let ey' = fresh () in
        let end_body = gof (Var.Map.add s.Ast.end_y ey' envw) s.Ast.end_body in
        Ast.Sum
          { Ast.gamma_var = gv'; gamma; w = w'; guard; end_y = ey'; end_body }
  in
  gof Var.Map.empty f

(* ------------------------------------------------------------------ *)
(* Structural hash and equality over the AST                           *)
(* ------------------------------------------------------------------ *)

(* Hand-written: [Hashtbl.hash] is depth-limited (deep formulas would all
   collide or, worse for equality, the polymorphic [=] would descend into
   abstract [Q.t] representations).  Same multiplier idiom as the Linexpr
   interning hash. *)
let hc h x = (h * 131) + x

let var_h x = Hashtbl.hash (Var.name x)

let rec term_hash h (t : Ast.term) =
  match t with
  | Ast.Const q -> hc (hc h 1) (Q.hash q)
  | Ast.TVar x -> hc (hc h 2) (var_h x)
  | Ast.Add (a, b) -> term_hash (term_hash (hc h 3) a) b
  | Ast.Mul (a, b) -> term_hash (term_hash (hc h 4) a) b
  | Ast.Sum s ->
      let h = hc (hc h 5) (var_h s.Ast.gamma_var) in
      let h = formula_hash h s.Ast.gamma in
      let h = List.fold_left (fun h x -> hc h (var_h x)) h s.Ast.w in
      let h = formula_hash h s.Ast.guard in
      let h = hc h (var_h s.Ast.end_y) in
      formula_hash h s.Ast.end_body

and formula_hash h (f : Ast.formula) =
  match f with
  | Ast.True -> hc h 6
  | Ast.False -> hc h 7
  | Ast.Cmp (op, a, b) ->
      let oc = match op with Ast.Ceq -> 8 | Ast.Clt -> 9 | Ast.Cle -> 10 in
      term_hash (term_hash (hc h oc) a) b
  | Ast.Rel (r, args) ->
      let h = hc (hc h 11) (Hashtbl.hash r) in
      List.fold_left (fun h x -> hc h (var_h x)) h args
  | Ast.Not g -> formula_hash (hc h 12) g
  | Ast.And (g, k) -> formula_hash (formula_hash (hc h 13) g) k
  | Ast.Or (g, k) -> formula_hash (formula_hash (hc h 14) g) k
  | Ast.Exists (x, g) -> formula_hash (hc (hc h 15) (var_h x)) g
  | Ast.Forall (x, g) -> formula_hash (hc (hc h 16) (var_h x)) g

let hash_formula f = formula_hash 0 f land max_int

let rec term_equal (a : Ast.term) (b : Ast.term) =
  match (a, b) with
  | Ast.Const p, Ast.Const q -> Q.equal p q
  | Ast.TVar x, Ast.TVar y -> Var.equal x y
  | Ast.Add (a1, a2), Ast.Add (b1, b2) | Ast.Mul (a1, a2), Ast.Mul (b1, b2) ->
      term_equal a1 b1 && term_equal a2 b2
  | Ast.Sum s, Ast.Sum t ->
      Var.equal s.Ast.gamma_var t.Ast.gamma_var
      && Var.equal s.Ast.end_y t.Ast.end_y
      && List.compare_lengths s.Ast.w t.Ast.w = 0
      && List.for_all2 Var.equal s.Ast.w t.Ast.w
      && formula_equal s.Ast.gamma t.Ast.gamma
      && formula_equal s.Ast.guard t.Ast.guard
      && formula_equal s.Ast.end_body t.Ast.end_body
  | _ -> false

and formula_equal (f : Ast.formula) (g : Ast.formula) =
  match (f, g) with
  | Ast.True, Ast.True | Ast.False, Ast.False -> true
  | Ast.Cmp (o1, a1, b1), Ast.Cmp (o2, a2, b2) ->
      o1 = o2 && term_equal a1 a2 && term_equal b1 b2
  | Ast.Rel (r1, v1), Ast.Rel (r2, v2) ->
      String.equal r1 r2
      && List.compare_lengths v1 v2 = 0
      && List.for_all2 Var.equal v1 v2
  | Ast.Not a, Ast.Not b -> formula_equal a b
  | Ast.And (a1, a2), Ast.And (b1, b2) | Ast.Or (a1, a2), Ast.Or (b1, b2) ->
      formula_equal a1 b1 && formula_equal a2 b2
  | Ast.Exists (x, a), Ast.Exists (y, b) | Ast.Forall (x, a), Ast.Forall (y, b)
    ->
      Var.equal x y && formula_equal a b
  | _ -> false

let equal_formula = formula_equal

(* ------------------------------------------------------------------ *)
(* The plan record                                                     *)
(* ------------------------------------------------------------------ *)

type exec_state = ..

type t = {
  id : int;
  source : Ast.formula;
  normal : Ast.formula;
  coords : Var.t array;
  params : Var.t array;
  shape_hash : int;
  profile : Dispatch.cost_profile;
  projected : float;
  hint : Dispatch.hint option;
  budget : float;
  decision : Dispatch.decision;
  compile_ns : float;
  mutable cache_hits : int;  (* under [lock] *)
  lock : Mutex.t;
  mutable states : (Obj.t * exec_state) list;  (* MRU, under [lock] *)
}

let id p = p.id
let source p = p.source
let normal p = p.normal
let coords p = p.coords
let params p = p.params
let shape_hash p = p.shape_hash
let profile p = p.profile
let projected p = p.projected
let hint p = p.hint
let budget p = p.budget
let decision p = p.decision
let compile_ns p = p.compile_ns

let hit_count p =
  Mutex.lock p.lock;
  let n = p.cache_hits in
  Mutex.unlock p.lock;
  n

let equal_shape a b =
  a.shape_hash = b.shape_hash && equal_formula a.normal b.normal

(* ------------------------------------------------------------------ *)
(* Shape keys and the striped plan cache                               *)
(* ------------------------------------------------------------------ *)

module Shape = struct
  type nonrec t = {
    normal : Ast.formula;
    coords : Var.t array;
    params : Var.t array;
    h : int;
  }

  let vars_eq a b =
    Array.length a = Array.length b && Array.for_all2 Var.equal a b

  let equal a b =
    a.h = b.h && vars_eq a.coords b.coords && vars_eq a.params b.params
    && formula_equal a.normal b.normal

  let hash a = a.h
end

module Cache = Cqa_conc.Striped_tbl.Make (Shape)

(* Fewer stripes than the memo tables: plans are few and large, and a
   small capacity split 16 ways would leave most stripes unable to cache
   at all. *)
let cache : t Cache.t =
  Cache.create ~shards:8 ~name:"plan.cache" ~cap:512
    ~evict:Cqa_conc.Striped_tbl.Half ()

let next_id = Atomic.make 0

(* [normalized] is the semantically-equal spelling (the analysis layer's
   rewrite normal form) the key is actually hashed on; the coordinate and
   parameter contract is validated against [f] as written, because
   rewriting may shrink the free-variable set (a dead branch can carry the
   only occurrence of a coordinate) and the plan's geometry must stay that
   of the source query. *)
let shape_key ?(params = [||]) ?coords ?normalized f =
  let normal = alpha_normalize (Option.value normalized ~default:f) in
  let frees = Ast.free_vars f in
  Array.iter
    (fun p ->
      if not (Var.Set.mem p frees) then
        invalid_arg
          (Printf.sprintf "Plan: parameter %s is not a free variable"
             (Var.name p)))
    params;
  let coords =
    match coords with
    | Some c -> c
    | None ->
        Var.Set.elements frees
        |> List.filter (fun v -> not (Array.exists (Var.equal v) params))
        |> Array.of_list
  in
  Array.iter
    (fun c ->
      if Array.exists (Var.equal c) params then
        invalid_arg
          (Printf.sprintf "Plan: %s is both a coordinate and a parameter"
             (Var.name c)))
    coords;
  let covered =
    Array.fold_left
      (fun s v -> Var.Set.add v s)
      (Array.fold_left (fun s v -> Var.Set.add v s) Var.Set.empty coords)
      params
  in
  if not (Var.Set.subset frees covered) then
    invalid_arg "Plan: coordinates do not cover the query's free variables";
  let h =
    let h = formula_hash 0 normal in
    let h = Array.fold_left (fun h v -> hc h (var_h v)) (hc h 17) coords in
    let h = Array.fold_left (fun h v -> hc h (var_h v)) (hc h 18) params in
    h land max_int
  in
  { Shape.normal; coords; params; h }

let build ~source ~hint ~budget (key : Shape.t) ~t0 =
  let profile = Dispatch.profile_formula key.Shape.normal in
  let projected = Dispatch.projected_qe_atoms profile in
  let decision = Dispatch.decide ~budget profile in
  let compile_ns = T.now_ns () -. t0 in
  T.record_ns tm_compile compile_ns;
  if T.enabled () then T.add tm_compile_ns (int_of_float compile_ns);
  {
    id = Atomic.fetch_and_add next_id 1;
    source;
    normal = key.Shape.normal;
    coords = key.Shape.coords;
    params = key.Shape.params;
    shape_hash = key.Shape.h;
    profile;
    projected;
    hint;
    budget;
    decision;
    compile_ns;
    cache_hits = 0;
    lock = Mutex.create ();
    states = [];
  }

let compile ?normalize ?hint ?(budget = Dispatch.default_budget) ?params
    ?coords f =
  let t0 = T.now_ns () in
  let normalized = Option.map (fun n -> n f) normalize in
  build ~source:f ~hint ~budget (shape_key ?params ?coords ?normalized f) ~t0

(* [normalize] runs on every lookup, hit or miss — the cache is keyed on
   the rewritten normal form, so the rewrite has to happen before the
   probe (unlike [hint_of], which only pays on a miss).  The closure must
   therefore be cheap relative to compilation; the analysis layer's
   rewriter is a static fixpoint pass with no QE in it. *)
let cached ?normalize ?(hint_of = fun _ -> None)
    ?(budget = Dispatch.default_budget) ?params ?coords f =
  let t0 = T.now_ns () in
  let normalized = Option.map (fun n -> n f) normalize in
  let key = shape_key ?params ?coords ?normalized f in
  match Cache.find_opt cache key with
  | Some p ->
      T.incr tm_cache_hit;
      Mutex.lock p.lock;
      p.cache_hits <- p.cache_hits + 1;
      Mutex.unlock p.lock;
      p
  | None ->
      T.incr tm_cache_miss;
      (* the analyzer sees the rewritten spelling: its fragment verdict —
         and hence the engine hint — should reflect what will actually be
         executed (a nonlinear dead branch may just have been cut away) *)
      let hint = hint_of (Option.value normalized ~default:f) in
      let p = build ~source:f ~hint ~budget key ~t0 in
      Cache.replace cache key p;
      p

(* Bumped on every [clear_cache] so outer cache levels (the planner's
   whole-plan memo) can invalidate without a dependency cycle: an entry
   stamped with an older generation is dead, whatever table it sits in. *)
let generation = Atomic.make 0

let clear_cache () =
  Atomic.incr generation;
  Cache.reset cache

let cache_generation () = Atomic.get generation
let cache_length () = Cache.length cache
let cache_capacity () = Cache.capacity cache
let set_cache_capacity n = Cache.set_capacity cache n
let cache_stats () = Cache.stats cache

let pp_cache_stats fmt () =
  let stats = cache_stats () in
  Format.fprintf fmt "@[<v>plan cache: %d/%d entries, %d stripes@,"
    (cache_length ()) (cache_capacity ()) (Array.length stats);
  Format.fprintf fmt "%-8s %6s %8s %8s %8s %10s@," "stripe" "size" "hits"
    "misses" "evicted" "contention";
  Array.iteri
    (fun i (s : Cqa_conc.Striped_tbl.stat) ->
      if s.size > 0 || s.hits > 0 || s.misses > 0 || s.evicted > 0 then
        Format.fprintf fmt "%-8d %6d %8d %8d %8d %10d@," i s.size s.hits
          s.misses s.evicted s.contention)
    stats;
  let tot =
    Array.fold_left Cqa_conc.Striped_tbl.add_stat
      Cqa_conc.Striped_tbl.zero_stat stats
  in
  Format.fprintf fmt "%-8s %6d %8d %8d %8d %10d@]" "total" tot.size tot.hits
    tot.misses tot.evicted tot.contention

(* ------------------------------------------------------------------ *)
(* Per-database execution state (owned by Exec)                        *)
(* ------------------------------------------------------------------ *)

(* Keyed on the database's physical identity: value equality of databases
   is expensive and pointless here, while the common case — the same
   database value re-executed many times — is physical.  Updates mutate
   the database in place, so identity alone does not date a state: Exec
   stamps each one with the version it reflects and settles it against
   [Db.changes_since] before use.  A small MRU cap bounds the liveness we
   impose on old databases. *)
let states_cap = 4

let lookup_state p db =
  let k = Obj.repr db in
  Mutex.lock p.lock;
  let r = List.assq_opt k p.states in
  (match r with
  | Some st when not (match p.states with (k0, _) :: _ -> k0 == k | [] -> false)
    ->
      (* move to front *)
      p.states <-
        (k, st) :: List.filter (fun (k', _) -> not (k' == k)) p.states
  | _ -> ());
  Mutex.unlock p.lock;
  r

let store_state p db st =
  let k = Obj.repr db in
  Mutex.lock p.lock;
  let others = List.filter (fun (k', _) -> not (k' == k)) p.states in
  let others = List.filteri (fun i _ -> i < states_cap - 1) others in
  p.states <- (k, st) :: others;
  Mutex.unlock p.lock

let reset_states p =
  Mutex.lock p.lock;
  p.states <- [];
  Mutex.unlock p.lock

let with_lock p f =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) f

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_vars fmt vs =
  if Array.length vs = 0 then Format.pp_print_string fmt "(none)"
  else
    Array.iteri
      (fun i v ->
        if i > 0 then Format.pp_print_char fmt ' ';
        Var.pp fmt v)
      vs

let pp fmt p =
  Format.fprintf fmt
    "@[<v>plan #%d (shape %08x)@,coords: %a@,params: %a@,hint: %s@,\
     atoms=%d quantifiers=%d sums=%d width=%d@,projected QE atoms: %.3g@,\
     decision: %a@,compile: %.0f ns@]"
    p.id
    (p.shape_hash land 0xffffffff)
    pp_vars p.coords pp_vars p.params
    (match p.hint with
    | Some h -> Dispatch.to_string h
    | None -> "(runtime probe)")
    p.profile.Dispatch.atoms p.profile.Dispatch.quantifiers
    p.profile.Dispatch.sum_count p.profile.Dispatch.tuple_width p.projected
    Dispatch.pp_decision p.decision p.compile_ns
