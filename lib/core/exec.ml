open Cqa_arith
open Cqa_logic
open Cqa_linear
module T = Cqa_telemetry.Telemetry
module Par = Cqa_conc.Par

(* All plan.* and exec.* counters depend on cache and per-database state,
   hence on execution history; they are exempt from the determinism
   contract. *)
let tm_state_hit = T.counter "plan.state.hit"
let tm_state_miss = T.counter "plan.state.miss"
let tm_exec_exact = T.counter "plan.exec.exact"
let tm_exec_fallback = T.counter "plan.exec.fallback"
let tm_param_fast = T.counter "plan.param.fast"
let tm_param_slow = T.counter "plan.param.slow"

(* Incremental-maintenance traffic: cells are breakpoint intervals of the
   Lemma 5 piece lists, samples are retained Theorem 4 sample points. *)
let tm_inv_full = T.counter "exec.invalidate.full"
let tm_inv_cells = T.counter "exec.invalidate.cells"
let tm_reuse_cells = T.counter "exec.reuse.cells"
let tm_inv_samples = T.counter "exec.invalidate.samples"
let tm_reuse_samples = T.counter "exec.reuse.samples"

(* ------------------------------------------------------------------ *)
(* Per-database execution state                                        *)
(* ------------------------------------------------------------------ *)

type set_state = S_unknown | S_ok of Semilinear.t | S_no of string
type fn_state = F_unknown | F_ok of Volume_param.t | F_no

(* A retained Theorem 4 sample: the drawn points (flat 2^53-numerators,
   [Approx_volume.sample_points]'s layout) plus their membership
   bitmap.  [fraction_of_bits sm_bits] is exactly the estimate the
   one-shot [Volume_exact.sampler_estimate] computes for the same
   (eps, delta, seed, domains); after an update only the points inside
   the delta boxes are re-tested. *)
type sampler = {
  sm_eps : float;
  sm_delta : float;
  sm_seed : int;
  sm_domains : int;
  sm_m : int;
  sm_pts : int array;
  mutable sm_bits : Bytes.t;
}

let sampler_cap = 4

type st = {
  mutable version : int;
      (* the database version the cached fields below reflect *)
  mutable set : set_state;
      (* the query evaluated over coords ++ params (params trailing) *)
  mutable fn : fn_state;
      (* Lemma 5 piece list of the set along its last layout axis: with a
         single parameter it is the parametric fast path, without
         parameters its integral is the exact volume *)
  mutable fn_clamped : fn_state;
      (* same pieces for the unit-cube clamp (VOL_I) *)
  mutable vol : Q.t option;
  mutable vol_clamped : Q.t option;
  mutable samplers : sampler list;  (* MRU order, at most [sampler_cap] *)
}

type Plan.exec_state += St of st

(* Memo discipline mirrors the striped memo tables: read the slot under
   the plan lock, compute outside it, write back under it keeping any
   value a concurrent domain installed first.  Duplicate computes are
   benign (exact arithmetic, equal results). *)
let state p db =
  match Plan.lookup_state p db with
  | Some (St st) ->
      T.incr tm_state_hit;
      st
  | _ ->
      T.incr tm_state_miss;
      let st =
        {
          version = Db.version db;
          set = S_unknown;
          fn = F_unknown;
          fn_clamped = F_unknown;
          vol = None;
          vol_clamped = None;
          samplers = [];
        }
      in
      Plan.store_state p db (St st);
      st

let layout p = Array.append (Plan.coords p) (Plan.params p)

let compute_set p db =
  match Plan.hint p with
  | Some Dispatch.Exact_semilinear -> S_ok (Eval.eval_set db (layout p) (Plan.normal p))
  | Some (Dispatch.Pointwise_poly | Dispatch.Sum_eval) ->
      S_no
        "static dispatch hint excludes the exact engine (use the Theorem 4 \
         sampling estimators)"
  | None -> (
      match Eval.try_eval_set db (layout p) (Plan.normal p) with
      | Some s -> S_ok s
      | None -> S_no "query is not linear-reducible")

(* ------------------------------------------------------------------ *)
(* Delta analysis: which cached facts can an update actually touch?    *)
(* ------------------------------------------------------------------ *)

(* Rel occurrences of the normalized query, with binder shadowing made
   explicit: each occurrence is the relation name plus, per argument
   position, the layout index of the free variable there ([None] for a
   bound variable or a variable outside the layout -- an unconstrained
   position).  Plan binders are alpha-renamed apart from the layout, so
   shadowing never fires in practice; tracking it keeps the analysis
   conservative regardless. *)
let occurrences layout f =
  let n = Array.length layout in
  let idx v =
    let rec go i =
      if i >= n then None else if Var.equal layout.(i) v then Some i else go (i + 1)
    in
    go 0
  in
  let occs = ref [] in
  let rec go bound = function
    | Ast.True | Ast.False | Ast.Cmp _ -> ()
    | Ast.Rel (r, args) ->
        let poss =
          List.map
            (fun v -> if List.exists (Var.equal v) bound then None else idx v)
            args
        in
        occs := (r, poss) :: !occs
    | Ast.Not g -> go bound g
    | Ast.And (a, b) | Ast.Or (a, b) ->
        go bound a;
        go bound b
    | Ast.Exists (v, g) | Ast.Forall (v, g) -> go (v :: bound) g
  in
  go [] f;
  !occs

(* Membership at a point can only change if some consulted tuple of the
   edited relation lies in the edited region, hence inside its bounding
   box.  An occurrence consults tuples whose coordinates at layout-bound
   positions equal the point's; every other position is free.  Each
   change contributes one integer box per occurrence of its relation:
   [(slot, klo, khi)] constraints on a sample numerator [k], from
   [lo <= k/2^53 <=> ceil (lo*2^53) <= k] and [k/2^53 <= hi <=>
   k <= floor (hi*2^53)].  A box without constraints holds every point. *)
let two53 = Q.of_bigint (Bigint.shift_left Bigint.one 53)

let numerator_bound round q =
  let b = round (Q.mul q two53) in
  if Bigint.sign b < 0 then -1
  else match Bigint.to_int_opt b with Some k when k < 1 lsl 53 -> k | _ -> 1 lsl 53

let dirty_boxes occs chs =
  List.concat_map
    (fun (ch : Db.change) ->
      if ch.Db.delta_empty then []
      else
        List.filter_map
          (fun (r, poss) ->
            if r <> ch.Db.rel then None
            else
              match ch.Db.delta_box with
              | None -> Some [||]
              | Some bb ->
                  Some
                    (List.concat
                       (List.mapi
                          (fun j p ->
                            match p with
                            | Some k when j < Array.length bb ->
                                let lo, hi = bb.(j) in
                                [ (k, numerator_bound Q.ceil lo, numerator_bound Q.floor hi) ]
                            | _ -> [])
                          poss)
                    |> Array.of_list))
          occs)
    chs

let in_box ks base box =
  Array.for_all
    (fun (k, lo, hi) ->
      let x = ks.(base + k) in
      lo <= x && x <= hi)
    box

(* Dirty extent of the last layout axis: sections at [t] outside the slab
   cannot consult an edited tuple, so their membership -- and hence their
   measure -- is unchanged. *)
type slab = All | Ints of (Q.t * Q.t) list

let slab_union a b =
  match (a, b) with All, _ | _, All -> All | Ints x, Ints y -> Ints (x @ y)

let slab_of_change occs ~last (ch : Db.change) =
  if ch.Db.delta_empty then Ints []
  else
    match ch.Db.delta_box with
    | None -> if List.exists (fun (r, _) -> r = ch.Db.rel) occs then All else Ints []
    | Some bb ->
        List.fold_left
          (fun acc (r, poss) ->
            if r <> ch.Db.rel then acc
            else begin
              (* intersect the box ranges at every position naming the
                 last layout variable; no such position = the occurrence
                 is unconstrained in [t] *)
              let iv = ref None and constrained = ref false in
              List.iteri
                (fun j p ->
                  if p = Some last && j < Array.length bb then begin
                    constrained := true;
                    let lo, hi = bb.(j) in
                    iv :=
                      Some
                        (match !iv with
                        | None -> (lo, hi)
                        | Some (a, b) -> (Q.max a lo, Q.min b hi))
                  end)
                poss;
              if not !constrained then All
              else
                match !iv with
                | Some (a, b) when Q.leq a b -> slab_union acc (Ints [ (a, b) ])
                | _ -> acc
            end)
          (Ints []) occs

let slab_hits slab a b =
  match slab with
  | All -> true
  | Ints l -> List.exists (fun (lo, hi) -> Q.lt lo b && Q.lt a hi) l

(* ------------------------------------------------------------------ *)
(* Settling a stale state against the database's change log            *)
(* ------------------------------------------------------------------ *)

let count_pieces = function F_ok pcs -> List.length pcs | _ -> 0

let invalidate_full st =
  T.incr tm_inv_full;
  if T.enabled () then begin
    T.add tm_inv_cells (count_pieces st.fn + count_pieces st.fn_clamped);
    T.add tm_inv_samples
      (List.fold_left (fun n sm -> n + sm.sm_m) 0 st.samplers)
  end;
  st.set <- S_unknown;
  st.fn <- F_unknown;
  st.fn_clamped <- F_unknown;
  st.vol <- None;
  st.vol_clamped <- None;
  st.samplers <- []

let refresh_slot ~domains ~dirty ~old_set s = function
  | F_unknown | F_no -> F_unknown
  | F_ok old -> (
      match Volume_param.refresh ~domains ~old_set ~old ~dirty s with
      | pieces, recomputed, reused ->
          if T.enabled () then begin
            T.add tm_inv_cells recomputed;
            T.add tm_reuse_cells reused
          end;
          F_ok pieces
      | exception (Volume_exact.Unbounded | Invalid_argument _) -> F_no)

let rescore_samplers ~occs ~relevant p db st =
  match st.samplers with
  | [] -> ()
  | samplers ->
      let lay = layout p in
      let dim = Array.length lay in
      let boxes = dirty_boxes occs relevant in
      let o = Volume_approx.compile db lay (Plan.normal p) in
      List.iter
        (fun sm ->
          let mem = Volume_approx.test o sm.sm_pts in
          let bits = Bytes.copy sm.sm_bits in
          let dirty_n = ref 0 in
          for i = 0 to sm.sm_m - 1 do
            if List.exists (in_box sm.sm_pts (i * dim)) boxes then begin
              incr dirty_n;
              Bytes.set bits i (if mem i then '\001' else '\000')
            end
          done;
          if T.enabled () then begin
            T.add tm_inv_samples !dirty_n;
            T.add tm_reuse_samples (sm.sm_m - !dirty_n)
          end;
          sm.sm_bits <- bits)
        samplers

(* Apply a batch of logged changes to the cached state, invalidating only
   what the deltas can touch.  Runs under the plan lock; [Eval] and the
   volume engines never take plan locks, so recomputing here is safe. *)
let settle ~domains p db st chs =
  let chs = List.filter (fun (c : Db.change) -> not c.Db.delta_empty) chs in
  if chs = [] then () (* pure no-ops: every cached fact still holds *)
  else begin
    let f = Plan.normal p in
    let lay = layout p in
    let dim = Array.length lay in
    if dim = 0 || Ast.has_sum f then
      (* SUM terms consult relations through their own binders; give up on
         locality rather than reason about them *)
      invalidate_full st
    else begin
      let occs = occurrences lay f in
      let relevant =
        List.filter
          (fun (c : Db.change) -> List.exists (fun (r, _) -> r = c.Db.rel) occs)
          chs
      in
      if relevant = [] then () (* the query never consults the edited relations *)
      else begin
        let last = dim - 1 in
        let slab =
          List.fold_left
            (fun acc c -> slab_union acc (slab_of_change occs ~last c))
            (Ints []) relevant
        in
        (match slab with
        | Ints [] ->
            (* every consult the deltas could supply is impossible:
               membership is unchanged everywhere *)
            ()
        | _ ->
            let dirty a b = slab_hits slab a b in
            st.vol <- None;
            st.vol_clamped <- None;
            (match st.set with
            | S_unknown ->
                st.fn <- F_unknown;
                st.fn_clamped <- F_unknown
            | S_no _ ->
                st.set <- S_unknown;
                st.fn <- F_unknown;
                st.fn_clamped <- F_unknown
            | S_ok s_old -> (
                match compute_set p db with
                | S_ok s' ->
                    st.set <- S_ok s';
                    st.fn <- refresh_slot ~domains ~dirty ~old_set:s_old s' st.fn;
                    st.fn_clamped <-
                      refresh_slot ~domains ~dirty
                        ~old_set:(Semilinear.clamp_unit s_old)
                        (Semilinear.clamp_unit s')
                        st.fn_clamped
                | r ->
                    st.set <- r;
                    st.fn <- F_unknown;
                    st.fn_clamped <- F_unknown)));
        rescore_samplers ~occs ~relevant p db st
      end
    end
  end

(* Bring the per-database state up to the database's current version.
   Every public entry point calls this first; the version compare is the
   whole cost on the (usual) no-update path. *)
let sync ~domains p db =
  let st = state p db in
  if st.version <> Db.version db then
    Plan.with_lock p (fun () ->
        let v = Db.version db in
        if st.version <> v then begin
          (match Db.changes_since db st.version with
          | None -> invalidate_full st
          | Some chs -> settle ~domains p db st chs);
          st.version <- v
        end);
  st

let get_set p db =
  let st = state p db in
  match Plan.with_lock p (fun () -> st.set) with
  | S_ok s -> Ok s
  | S_no m -> Error m
  | S_unknown -> (
      let r = compute_set p db in
      Plan.with_lock p (fun () ->
          (match st.set with S_unknown -> st.set <- r | _ -> ());
          match st.set with
          | S_ok s -> Ok s
          | S_no m -> Error m
          | S_unknown -> assert false))

let set_exn p db =
  match get_set p db with
  | Ok s -> s
  | Error m -> raise (Volume_exact.Not_semilinear m)

(* ------------------------------------------------------------------ *)
(* Lemma 5 piece lists                                                 *)
(* ------------------------------------------------------------------ *)

let get_fn ~domains ~clamped p db s =
  let st = state p db in
  let read () = if clamped then st.fn_clamped else st.fn in
  let write r = if clamped then st.fn_clamped <- r else st.fn <- r in
  match Plan.with_lock p read with
  | F_ok fn -> Some fn
  | F_no -> None
  | F_unknown -> (
      let r =
        if Semilinear.dim s < 2 then F_no
        else
          let s = if clamped then Semilinear.clamp_unit s else s in
          match Volume_param.section_volume_function ~domains s with
          | fn -> F_ok fn
          | exception (Volume_exact.Unbounded | Invalid_argument _) -> F_no
      in
      Plan.with_lock p (fun () ->
          (match read () with F_unknown -> write r | _ -> ());
          match read () with F_ok fn -> Some fn | _ -> None))

(* ------------------------------------------------------------------ *)
(* Unparameterized volumes                                             *)
(* ------------------------------------------------------------------ *)

let no_params name p =
  if Array.length (Plan.params p) > 0 then
    invalid_arg
      (Printf.sprintf "%s: plan has parameter slots (use volume_at)" name)

let memo_q p slot_get slot_set compute =
  match Plan.with_lock p slot_get with
  | Some v -> v
  | None ->
      let v = compute () in
      Plan.with_lock p (fun () ->
          match slot_get () with
          | Some v' -> v'
          | None ->
              slot_set v;
              v)

(* In dimension >= 2 the volume is the integral of the Lemma 5 piece
   list, which [Volume_exact.section_pieces] builds exactly as the direct
   sweep does, and the pieces stay behind for incremental refresh after
   updates. *)
let volume ?(domains = 1) p db =
  no_params "Exec.volume" p;
  let st = sync ~domains p db in
  let s = set_exn p db in
  memo_q p
    (fun () -> st.vol)
    (fun v -> st.vol <- Some v)
    (fun () ->
      match get_fn ~domains ~clamped:false p db s with
      | Some fn -> Volume_param.integrate fn
      | None -> Volume_exact.volume ~domains s)

let volume_clamped ?(domains = 1) p db =
  no_params "Exec.volume_clamped" p;
  let st = sync ~domains p db in
  let s = set_exn p db in
  memo_q p
    (fun () -> st.vol_clamped)
    (fun v -> st.vol_clamped <- Some v)
    (fun () ->
      match get_fn ~domains ~clamped:true p db s with
      | Some fn -> Volume_param.integrate fn
      | None -> Volume_exact.volume_clamped ~domains s)

(* ------------------------------------------------------------------ *)
(* Parameterized execution                                             *)
(* ------------------------------------------------------------------ *)

(* Parameters occupy the trailing coordinates of the layout, so binding
   them is repeated sectioning on the last axis, innermost (last
   parameter) first. *)
let section_at s qs =
  let s = ref s in
  for i = Array.length qs - 1 downto 0 do
    s := Semilinear.section_last !s qs.(i)
  done;
  !s

(* The Lemma 5 fast path is only taken strictly inside a polynomial
   piece, where [Volume_param.eval] provably equals the section's sweep
   volume; at breakpoints (where eval's adjacent-piece convention is a
   measure-zero choice) and outside the pieces, fall through to the
   direct sweep so batched and one-shot execution agree everywhere. *)
let eval_interior fn t =
  if
    List.exists
      (fun (pc : Volume_param.piece) -> Q.lt pc.lo t && Q.lt t pc.hi)
      fn
  then Some (Volume_param.eval fn t)
  else None

let volume_at ?(domains = 1) p db qs =
  let np = Array.length (Plan.params p) in
  if Array.length qs <> np then
    invalid_arg
      (Printf.sprintf "Exec.volume_at: expected %d parameter values, got %d" np
         (Array.length qs));
  if np = 0 then volume ~domains p db
  else begin
    ignore (sync ~domains p db);
    let s = set_exn p db in
    let fast =
      if np = 1 then
        match get_fn ~domains ~clamped:false p db s with
        | Some fn -> eval_interior fn qs.(0)
        | None -> None
      else None
    in
    match fast with
    | Some v ->
        T.incr tm_param_fast;
        v
    | None ->
        T.incr tm_param_slow;
        Volume_exact.volume ~domains (section_at s qs)
  end

(* Batched execution with the parallelism turned sideways: one binding per
   work item across the pool, each evaluated sequentially, instead of one
   binding at a time with parallel internals.  The shared state (set,
   Lemma 5 polynomial) is warmed once before the fan-out so the workers
   only read it; values are the same exact rationals [volume_at] computes,
   and the chunk decomposition derives from [~domains] alone, so results
   are byte-identical for every domain count whatever the pool does. *)
let volume_batch ?(domains = 1) p db bindings =
  match bindings with
  | [] -> []
  | _ :: _ ->
      let np = Array.length (Plan.params p) in
      List.iter
        (fun qs ->
          if Array.length qs <> np then
            invalid_arg
              (Printf.sprintf
                 "Exec.volume_batch: expected %d parameter values, got %d" np
                 (Array.length qs)))
        bindings;
      ignore (sync ~domains p db);
      let s = set_exn p db in
      if np = 1 then ignore (get_fn ~domains:1 ~clamped:false p db s);
      let arr = Array.of_list bindings in
      Par.map ~label:"exec.volume_batch" ~domains
        (fun qs -> volume_at ~domains:1 p db qs)
        arr
      |> Array.to_list

(* ------------------------------------------------------------------ *)
(* Guarded execution                                                   *)
(* ------------------------------------------------------------------ *)

(* The Theorem 4 estimate for the plan's query, drawn from a retained
   sample: points and membership bitmap are cached per database keyed on
   (eps, delta, seed, domains), so a warm call is a bitmap popcount and
   an updated database only re-tests the points its deltas touch.  The
   size and the draw are [Volume_exact.sampler_estimate]'s own, so the
   value matches the one-shot estimator bit for bit. *)
let same_knobs ~domains ~eps ~delta ~seed sm =
  sm.sm_eps = eps && sm.sm_delta = delta && sm.sm_seed = seed
  && sm.sm_domains = domains

let sampled_estimate ~domains ~eps ~delta ~seed p db =
  let st = state p db in
  let coords = Plan.coords p in
  let m = Volume_exact.sampler_size ~eps ~delta coords in
  let key_eq = same_knobs ~domains ~eps ~delta ~seed in
  let promote sm =
    st.samplers <- sm :: List.filter (fun x -> not (x == sm)) st.samplers
  in
  let cached =
    Plan.with_lock p (fun () ->
        match List.find_opt key_eq st.samplers with
        | Some sm ->
            promote sm;
            Some sm
        | None -> None)
  in
  let bits =
    match cached with
    | Some sm -> sm.sm_bits
    | None ->
        let ks, bits =
          Volume_exact.sampler_draw ~domains ~seed ~m db coords (Plan.normal p)
        in
        let sm =
          {
            sm_eps = eps;
            sm_delta = delta;
            sm_seed = seed;
            sm_domains = domains;
            sm_m = m;
            sm_pts = ks;
            sm_bits = bits;
          }
        in
        Plan.with_lock p (fun () ->
            match List.find_opt key_eq st.samplers with
            | Some sm' ->
                promote sm';
                sm'.sm_bits
            | None ->
                st.samplers <- sm :: st.samplers;
                (if List.length st.samplers > sampler_cap then
                   st.samplers <-
                     List.filteri (fun i _ -> i < sampler_cap) st.samplers);
                bits)
  in
  (Cqa_vc.Approx_volume.fraction_of_bits bits, m)

let retained_bits ?(domains = 1) ~eps ~delta ~seed p db =
  match Plan.lookup_state p db with
  | Some (St st) ->
      Plan.with_lock p (fun () ->
          List.find_opt (same_knobs ~domains ~eps ~delta ~seed) st.samplers
          |> Option.map (fun sm -> Bytes.copy sm.sm_bits))
  | _ -> None

let volume_guarded ?(domains = 1) ?budget ?(eps = 0.1) ?(delta = 0.1)
    ?(seed = 1) p db =
  no_params "Exec.volume_guarded" p;
  ignore (sync ~domains p db);
  let budget = Option.value budget ~default:(Plan.budget p) in
  (* the verdict was computed at plan time; re-decide only when the caller
     overrides the budget the plan was compiled against *)
  let decision =
    if budget = Plan.budget p then Plan.decision p
    else Dispatch.decide ~budget (Plan.profile p)
  in
  let projected = Plan.projected p in
  let fallback reason =
    T.incr tm_exec_fallback;
    if T.enabled () then
      T.event "plan.fallback"
        (Printf.sprintf "plan #%d: %s; projected=%.3g budget=%.3g eps=%g \
                         delta=%g"
           (Plan.id p) reason projected budget eps delta);
    let value, m = sampled_estimate ~domains ~eps ~delta ~seed p db in
    {
      Volume_exact.value;
      engine = Volume_exact.Approx_engine { sample_size = m };
      projected;
      budget;
    }
  in
  match Plan.hint p with
  | Some (Dispatch.Pointwise_poly | Dispatch.Sum_eval) ->
      fallback "static hint excludes the exact engine"
  | Some Dispatch.Exact_semilinear | None -> (
      match decision with
      | Dispatch.Fallback_approx _ -> fallback "projected cost exceeds budget"
      | Dispatch.Run_exact ->
          T.incr tm_exec_exact;
          let value = volume_clamped ~domains p db in
          { Volume_exact.value; engine = Volume_exact.Exact_engine; projected;
            budget })
