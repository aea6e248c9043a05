open Cqa_core
module T = Cqa_telemetry.Telemetry

(* Shares the atomic with Plan's own counter (the telemetry registry is
   name-keyed): a front-line memo hit *is* a plan-cache hit, just one that
   skipped the rewrite and the shape hash too. *)
let tm_cache_hit = T.counter "plan.cache.hit"

let hint_of ?db ?options () f =
  Some (Analyzer.analyze ?db ?options (Analyzer.Formula f)).Analyzer.hint

(* ------------------------------------------------------------------ *)
(* Front-line whole-plan memo                                          *)
(* ------------------------------------------------------------------ *)

(* [Plan.cached ~normalize] must rewrite and alpha-hash on every lookup —
   the cache is keyed on the rewritten normal form.  That is the right
   authority on a miss, but a warm server replays the *same spelling*
   thousands of times, and paying the rule fixpoint + alpha + shape hash
   per replay would dominate the warm-hit cost.  So the planner keeps a
   bounded first-line memo from the raw question — (formula, database
   identity and version, params, coords, budget) — straight to the
   compiled plan.  The version is part of the key because the rewriter
   reads the database's bounding boxes: after [Db.apply_update] the same
   question must be rewritten again, or a conjunct the old boxes proved
   unsatisfiable would still compile to [false].  Entries are stamped
   with {!Plan.cache_generation} and die wholesale on {!Plan.clear_cache},
   so reset semantics (tests, benches, the server's [reset] op) see one
   coherent cache.  [options] is deliberately not in the key: like the
   plan cache itself, a hit returns the earlier plan with the earlier
   hint. *)

type entry = {
  gen : int;
  db : Db.t option;  (* physical identity, paired with [version] *)
  version : int;  (* [Db.version db] when the plan was compiled; 0 without a db *)
  f : Ast.formula;
  params : Cqa_logic.Var.t array;
  coords : Cqa_logic.Var.t array option;
  budget : float;
  plan : Plan.t;
}

let memo_cap = 512
let memo : (int, entry list) Hashtbl.t = Hashtbl.create 128
let memo_size = ref 0
let memo_lock = Mutex.create ()

let same_db a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b
  | _ -> false

let vars_eq a b =
  Array.length a = Array.length b && Array.for_all2 Cqa_logic.Var.equal a b

let coords_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> vars_eq a b
  | _ -> false

let clear_memo () =
  Mutex.protect memo_lock (fun () ->
      Hashtbl.reset memo;
      memo_size := 0)

let memo_entries () = Mutex.protect memo_lock (fun () -> !memo_size)

let compile ?db ?options ?budget ?params ?coords f =
  let budget' = Option.value budget ~default:Dispatch.default_budget in
  let params' = Option.value params ~default:[||] in
  let gen = Plan.cache_generation () in
  (* read before compiling: an update racing the compile then leaves an
     entry stamped with the older version, which the next lookup misses *)
  let version = match db with Some d -> Db.version d | None -> 0 in
  let h = Plan.hash_formula f in
  let hit =
    Mutex.protect memo_lock (fun () ->
        match Hashtbl.find_opt memo h with
        | None -> None
        | Some entries ->
            List.find_map
              (fun e ->
                if
                  e.gen = gen && same_db e.db db && e.version = version
                  && e.budget = budget'
                  && vars_eq e.params params' && coords_eq e.coords coords
                  && Plan.equal_formula e.f f
                then Some e.plan
                else None)
              entries)
  in
  match hit with
  | Some p ->
      T.incr tm_cache_hit;
      p
  | None ->
      let p =
        Plan.cached
          ~normalize:(fun f -> Rewrite.formula ?db f)
          ~hint_of:(hint_of ?db ?options ())
          ?budget ?params ?coords f
      in
      Mutex.protect memo_lock (fun () ->
          if !memo_size >= memo_cap then begin
            Hashtbl.reset memo;
            memo_size := 0
          end;
          let entries = Option.value ~default:[] (Hashtbl.find_opt memo h) in
          Hashtbl.replace memo h
            ({
               gen;
               db;
               version;
               f;
               params = params';
               coords;
               budget = budget';
               plan = p;
             }
            :: entries);
          incr memo_size);
      p
