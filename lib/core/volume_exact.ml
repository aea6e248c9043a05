open Cqa_arith
open Cqa_linear
open Cqa_poly
open Cqa_geom
module T = Cqa_telemetry.Telemetry
module Par = Cqa_conc.Par

(* Telemetry probes (zero-cost while disabled).  Counters are bumped from
   worker domains during parallel sweeps; they are atomic, and their totals
   for a fixed input are independent of the domain count (per-chunk wall
   time lives in the [par.chunk:volume.*] timers instead). *)
let tm_sweep_calls = T.counter "volume.sweep.calls"
let tm_sweep_cells = T.counter "volume.sweep.cells"
let tm_sweep_sections = T.counter "volume.sweep.sections"
let tm_breakpoints = T.counter "volume.sweep.breakpoints"
let tm_ie_calls = T.counter "volume.incl_excl.calls"
let tm_ie_terms = T.counter "volume.incl_excl.terms"
let tm_arr_pushes = T.counter "volume.arrangement.pushes"
let tm_arr_vertices = T.counter "volume.arrangement.vertices"
let tm_arena_reuse = T.counter "arena.reuse"
let tm_arena_grow = T.counter "arena.grow"

(* Per-domain reuse of the Qmat elimination state: vertex enumeration
   allocates an n-row rational tableau per call, and parallel sweeps make
   that call per cell.  One reset-and-reused [elim] per dimension per
   domain removes the churn.  Sound because [Qmat.elim_push] overwrites
   its row storage completely (a reset state is indistinguishable from a
   fresh one) and each enumeration finishes before its caller returns —
   the arrangement walks never nest.  [arena.reuse]/[arena.grow] depend
   on which domain work lands on and are exempt from the cross-domain
   determinism contract. *)
let elim_slot : unit -> (int, Qmat.elim) Hashtbl.t =
  Cqa_conc.Pool.dls_slot ~init:(fun () -> Hashtbl.create 4)

let borrow_elim n =
  let tbl = elim_slot () in
  match Hashtbl.find_opt tbl n with
  | Some e ->
      T.incr tm_arena_reuse;
      Qmat.elim_reset e;
      e
  | None ->
      T.incr tm_arena_grow;
      let e = Qmat.elim_create n in
      Hashtbl.replace tbl n e;
      e

exception Unbounded

(* Keep only genuinely satisfiable disjuncts: for a satisfiable conjunction,
   relaxing strict atoms cannot introduce recession directions, so
   boundedness checks on the relaxation are then faithful. *)
let prune s =
  Semilinear.make (Semilinear.vars s)
    (List.filter Fourier_motzkin.satisfiable_conj (Semilinear.dnf s))

(* Constraints are hash-consed, so first-occurrence dedup is a tag-set
   membership test instead of the former quadratic scan over accumulated
   atoms. *)
let hyperplane_constrs s =
  let all =
    List.concat_map
      (fun conj -> List.map (fun a -> Linconstr.make (Linconstr.expr a) Linconstr.Eq) conj)
      (Semilinear.dnf s)
  in
  let seen = Hashtbl.create 64 in
  let rec uniq acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let tg = Linconstr.tag c in
        if Hashtbl.mem seen tg then uniq acc rest
        else begin
          Hashtbl.add seen tg ();
          uniq (c :: acc) rest
        end
  in
  uniq [] all

let hyperplane_exprs s = List.map Linconstr.expr (hyperplane_constrs s)

(* Guard for the combinatorial core below: warn (once per call) before
   enumerating an unreasonable number of n-subsets, but still proceed --
   the enumeration is exact and the caller asked for it. *)
let max_arrangement_subsets = ref 2_000_000

let set_max_arrangement_subsets n =
  if n < 1 then invalid_arg "Volume_exact.set_max_arrangement_subsets";
  max_arrangement_subsets := n

let get_max_arrangement_subsets () = !max_arrangement_subsets

(* binomial(m, n), saturating at [max_int] *)
let subset_count m n =
  let n = Stdlib.min n (m - n) in
  if n < 0 then 0
  else begin
    let rec go acc i =
      if i >= n then acc
      else if acc > max_int / (m - i) then max_int
      else go (acc * (m - i) / (i + 1)) (i + 1)
    in
    go 1 0
  end

(* Enumerate the n-subsets of the constraint hyperplanes with a
   backtracking incremental elimination: a hyperplane whose normal is
   linearly dependent on the current prefix is rejected immediately
   ([Qmat.elim_push] returns false), pruning every subset extending that
   prefix, where the former code built and solved a fresh n-by-n system per
   subset.  Nonsingular systems have unique solutions, so the vertices (and
   their order) are identical to the naive enumeration's. *)
let arrangement_vertices s =
  let n = Semilinear.dim s in
  let vars = Semilinear.vars s in
  let exprs = Array.of_list (hyperplane_exprs s) in
  let m = Array.length exprs in
  let verts = ref [] in
  if n >= 1 && m >= n then begin
    let subsets = subset_count m n in
    if subsets > !max_arrangement_subsets then
      Format.eprintf
        "Volume_exact.arrangement_vertices: %d hyperplanes in dimension %d: %d subsets \
         exceeds the advisory limit %d; proceeding (exact but slow)@."
        m n subsets !max_arrangement_subsets;
    let rows =
      Array.map
        (fun e ->
          (Array.map (fun v -> Linexpr.coeff e v) vars, Q.neg (Linexpr.constant e)))
        exprs
    in
    let elim = borrow_elim n in
    let rec choose k start =
      if k = n then begin
        T.incr tm_arr_vertices;
        verts := Qmat.elim_solution elim :: !verts
      end
      else
        for i = start to m - 1 do
          let row, rhs = rows.(i) in
          if Qmat.elim_push elim row rhs then begin
            T.incr tm_arr_pushes;
            choose (k + 1) (i + 1);
            Qmat.elim_pop elim
          end
        done
    in
    choose 0 0
  end;
  !verts

let breakpoints_pruned s =
  let n = Semilinear.dim s in
  match Semilinear.bounding_box s with
  | None -> raise Unbounded
  | Some bb ->
      let lo, hi = bb.(n - 1) in
      let vertex_ts =
        List.map (fun v -> v.(n - 1)) (arrangement_vertices s)
        |> List.filter (fun t -> Q.leq lo t && Q.leq t hi)
      in
      List.sort_uniq Q.compare (lo :: hi :: vertex_ts)

let breakpoints s =
  let s = prune s in
  if Semilinear.dnf s = [] then []
  else breakpoints_pruned s

(* Vertices of exactly the n-subsets whose least index is below [n_fresh].
   With the fresh hyperplanes placed first, a subset contains a fresh
   hyperplane iff its least index is fresh, so the enumeration is complete
   and duplicate-free over "subsets meeting a fresh hyperplane". *)
let vertices_meeting_fresh ~n ~vars ~n_fresh exprs =
  let m = Array.length exprs in
  let verts = ref [] in
  if n >= 1 && m >= n then begin
    let rows =
      Array.map
        (fun e ->
          (Array.map (fun v -> Linexpr.coeff e v) vars, Q.neg (Linexpr.constant e)))
        exprs
    in
    let elim = borrow_elim n in
    let rec choose k start =
      if k = n then begin
        T.incr tm_arr_vertices;
        verts := Qmat.elim_solution elim :: !verts
      end
      else
        for i = start to m - 1 do
          let row, rhs = rows.(i) in
          if Qmat.elim_push elim row rhs then begin
            T.incr tm_arr_pushes;
            choose (k + 1) (i + 1);
            Qmat.elim_pop elim
          end
        done
    in
    for i = 0 to Stdlib.min n_fresh m - 1 do
      let row, rhs = rows.(i) in
      if Qmat.elim_push elim row rhs then begin
        T.incr tm_arr_pushes;
        choose 1 (i + 1);
        Qmat.elim_pop elim
      end
    done
  end;
  !verts

(* [breakpoints s] computed against a predecessor set: when the last-axis
   bounding interval is unchanged and every hyperplane of [old_set]
   survives into [s]'s pool, the subsets drawn solely from old hyperplanes
   already contributed their vertices to [old_bps], so only subsets
   meeting a fresh hyperplane are enumerated and their filtered last
   coordinates merged into [old_bps].  [sort_uniq] of the merge equals the
   full recomputation's value exactly, so downstream interpolation stays
   byte-identical.  Any failed precondition falls back to the full
   enumeration. *)
let breakpoints_since ~old_set ~old_bps s =
  let s = prune s in
  if Semilinear.dnf s = [] then []
  else
    let full () = breakpoints_pruned s in

    let os = prune old_set in
    if Semilinear.dnf os = [] || old_bps = [] then full () 
    else
      match (Semilinear.bounding_box s, Semilinear.bounding_box os) with
      | None, _ -> raise Unbounded
      | _, None -> full () 
      | Some bb, Some obb ->
          let n = Semilinear.dim s in
          let lo, hi = bb.(n - 1) and olo, ohi = obb.(n - 1) in
          if not (Q.equal lo olo && Q.equal hi ohi) then full ()
          else begin
            let old_tags = Hashtbl.create 64 in
            List.iter
              (fun c -> Hashtbl.replace old_tags (Linconstr.tag c) ())
              (hyperplane_constrs os);
            let pool = hyperplane_constrs s in
            let fresh, kept =
              List.partition
                (fun c -> not (Hashtbl.mem old_tags (Linconstr.tag c)))
                pool
            in
            if List.length kept <> Hashtbl.length old_tags then full ()
            else if fresh = [] then old_bps
            else begin
              let exprs =
                Array.of_list (List.map Linconstr.expr (fresh @ kept))
              in
              let vertex_ts =
                vertices_meeting_fresh ~n ~vars:(Semilinear.vars s)
                  ~n_fresh:(List.length fresh) exprs
                |> List.map (fun v -> v.(n - 1))
                |> List.filter (fun t -> Q.leq lo t && Q.leq t hi)
              in
              List.sort_uniq Q.compare (old_bps @ vertex_ts)
            end
          end

type piece = { lo : Q.t; hi : Q.t; poly : Upoly.t }

let integrate pieces =
  List.fold_left
    (fun acc p -> Q.add acc (Upoly.integrate p.poly p.lo p.hi))
    Q.zero pieces

(* The sweep of the paper's Theorem 3 proof.  On each open piece (a, b)
   between consecutive breakpoints the section measure is a polynomial of
   degree < n (Lemma 5): [section_pieces] recovers it by interpolation at
   the n interior points a + (j + 1) (b - a) / (n + 1), and the sweep
   integrates the pieces in closed form.  [?domains] parallelizes the
   sections of the top-level call only (recursive sections run
   sequentially inside their domain); the sample values are reassembled
   in slot order and combined by exact rational arithmetic, so the result
   is byte-identical for every domain count. *)
let rec volume_sweep_pruned ?(domains = 1) s =
  let n = Semilinear.dim s in
  if Semilinear.dnf s = [] then Q.zero
  else if n = 0 then Q.one
  else if n = 1 then begin
    let cell = Semilinear.last_axis_cell s [||] in
    match Cell1.measure cell with
    | Some m -> m
    | None -> raise Unbounded
  end
  else begin
    T.incr tm_sweep_calls;
    let bps = breakpoints_pruned s in
    let pieces = section_pieces ~domains s bps in
    if T.enabled () then begin
      T.add tm_breakpoints (List.length bps);
      T.add tm_sweep_cells (List.length pieces);
      T.add tm_sweep_sections (n * List.length pieces)
    end;
    integrate pieces
  end

(* Every interval [reuse] declines is interpolated; all their sections go
   to the pool as one batch. *)
and section_pieces ?(domains = 1) ?(reuse = fun _ _ -> None) s bps =
  let n = Semilinear.dim s in
  let rec collect acc = function
    | a :: (b :: _ as rest) when Q.lt a b ->
        let piece =
          match reuse a b with
          | Some poly -> `Old poly
          | None ->
              let width = Q.sub b a in
              `New
                (List.init n (fun j ->
                     Q.add a (Q.mul width (Q.of_ints (j + 1) (n + 1)))))
        in
        collect ((a, b, piece) :: acc) rest
    | _ :: rest -> collect acc rest
    | [] -> List.rev acc
  in
  let pieces = collect [] bps in
  let samples =
    pieces
    |> List.concat_map (function _, _, `New ts -> ts | _, _, `Old _ -> [])
    |> Array.of_list
  in
  let h t = volume_sweep_pruned (prune (Semilinear.section_last s t)) in
  let values = Par.map ~label:"volume.sweep" ~domains h samples in
  let pos = ref 0 in
  List.map
    (fun (lo, hi, piece) ->
      match piece with
      | `Old poly -> { lo; hi; poly }
      | `New ts ->
          let pts =
            List.map
              (fun t ->
                let v = values.(!pos) in
                incr pos;
                (t, v))
              ts
          in
          { lo; hi; poly = Upoly.interpolate pts })
    pieces

let volume_sweep ?domains s = volume_sweep_pruned ?domains (prune s)

let volume_incl_excl ?(domains = 1) s =
  let s = prune s in
  let disjuncts = Semilinear.dnf s in
  if disjuncts = [] then Q.zero
  else begin
    if Semilinear.bounding_box s = None then raise Unbounded;
    let vars = Semilinear.vars s in
    let polys =
      Array.of_list
        (List.map (fun conj -> Hpolytope.of_constraints vars conj) disjuncts)
    in
    let d = Array.length polys in
    if d > 20 then invalid_arg "Volume_exact.volume_incl_excl: too many disjuncts";
    let term mask =
      let inter = ref None in
      let count = ref 0 in
      for i = 0 to d - 1 do
        if (mask lsr i) land 1 = 1 then begin
          incr count;
          inter :=
            Some
              (match !inter with
              | None -> polys.(i)
              | Some p -> Hpolytope.intersect p polys.(i))
        end
      done;
      match !inter with
      | None -> assert false
      | Some p ->
          T.incr tm_ie_terms;
          let v = Lasserre.volume p in
          if !count mod 2 = 1 then v else Q.neg v
    in
    T.incr tm_ie_calls;
    (* the signed terms are chunked over domains; exact rational addition is
       associative and commutative, so the re-association is value-exact *)
    Par.fold_ints ~label:"volume.incl_excl" ~domains ~combine:Q.add ~init:Q.zero
      term 1
      ((1 lsl d) - 1)
  end

let volume ?domains s = volume_sweep ?domains s

let volume_clamped ?domains s = volume_sweep ?domains (Semilinear.clamp_unit s)

(* ------------------------------------------------------------------ *)
(* Query-level entry with static dispatch                              *)
(* ------------------------------------------------------------------ *)

exception Not_semilinear of string

let volume_of_query ?domains ?hint db coords f =
  match (hint : Dispatch.hint option) with
  | Some Dispatch.Exact_semilinear ->
      (* the analyzer already proved linear-reducibility: evaluate directly,
         without the runtime probe *)
      volume_sweep ?domains (Eval.eval_set db coords f)
  | Some (Dispatch.Pointwise_poly | Dispatch.Sum_eval) ->
      raise
        (Not_semilinear
           "static dispatch hint excludes the exact engine (use the \
            Theorem 4 sampling estimators)")
  | None -> (
      match Eval.try_eval_set db coords f with
      | Some s -> volume_sweep ?domains s
      | None ->
          raise (Not_semilinear "query is not linear-reducible"))

(* ------------------------------------------------------------------ *)
(* Guarded results and the one-shot Theorem 4 estimator                *)
(* ------------------------------------------------------------------ *)

type engine = Exact_engine | Approx_engine of { sample_size : int }

type guarded = {
  value : Q.t;
  engine : engine;
  projected : float;
  budget : float;
}

let pp_engine fmt = function
  | Exact_engine -> Format.pp_print_string fmt "exact (Theorem 3 sweep)"
  | Approx_engine { sample_size } ->
      Format.fprintf fmt "approx (Theorem 4 sampling, M = %d)" sample_size

(* The Theorem 4 sample of a query: [M] for the section family's VC
   dimension [dim + 2], drawn from a PRNG freshly seeded with [seed] and
   scored against the query.  The one-shot estimator and [Exec]'s retained
   samples both go through these two functions, so they agree bit for
   bit. *)
let sampler_size ~eps ~delta coords =
  Cqa_vc.Bounds.blumer_sample_size ~eps ~delta ~vc_dim:(Array.length coords + 2)

let sampler_draw ?(domains = 1) ~seed ~m db coords f =
  let prng = Cqa_vc.Prng.create seed in
  let dim = Array.length coords in
  let ks = Cqa_vc.Approx_volume.sample_points ~domains ~prng ~dim m in
  ( ks,
    Cqa_vc.Approx_volume.score ~domains ~n:m
      (Volume_approx.test (Volume_approx.compile db coords f) ks) )

let sampler_estimate ?domains ~eps ~delta ~seed db coords f =
  let m = sampler_size ~eps ~delta coords in
  let _, bits = sampler_draw ?domains ~seed ~m db coords f in
  (Cqa_vc.Approx_volume.fraction_of_bits bits, m)
