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

(* Enumerate the n-subsets of [rows] (a length-[n] normal and a right-hand
   side each) whose least index is below [n_fresh] (default: all subsets)
   with a backtracking incremental elimination: a row whose normal is
   linearly dependent on the current prefix is rejected immediately
   ([Qmat.elim_push] returns false), pruning every subset extending that
   prefix.  Nonsingular systems have unique solutions, so the vertices are
   exactly the naive enumeration's.  With the fresh rows placed first, a
   subset contains a fresh row iff its least index is fresh, so the
   restricted enumeration is complete and duplicate-free over "subsets
   meeting a fresh row". *)
let enum_vertices ~n ?n_fresh rows =
  let m = Array.length rows in
  let verts = ref [] in
  if n >= 1 && m >= n then begin
    let n_fresh =
      match n_fresh with
      | Some f -> Stdlib.min f m
      | None ->
          let subsets = subset_count m n in
          if subsets > !max_arrangement_subsets then
            Format.eprintf
              "Volume_exact.arrangement_vertices: %d hyperplanes in dimension %d: %d \
               subsets exceeds the advisory limit %d; proceeding (exact but slow)@."
              m n subsets !max_arrangement_subsets;
          m
    in
    let elim = borrow_elim n in
    let rec push i k =
      let row, rhs = rows.(i) in
      if Qmat.elim_push elim row rhs then begin
        T.incr tm_arr_pushes;
        if k = n then begin
          T.incr tm_arr_vertices;
          verts := Qmat.elim_solution elim :: !verts
        end
        else
          for j = i + 1 to m - 1 do
            push j (k + 1)
          done;
        Qmat.elim_pop elim
      end
    in
    for i = 0 to n_fresh - 1 do
      push i 1
    done
  end;
  !verts

let hyperplane_rows vars exprs =
  Array.map
    (fun e -> (Array.map (Linexpr.coeff e) vars, Q.neg (Linexpr.constant e)))
    exprs

let arrangement_vertices s =
  enum_vertices ~n:(Semilinear.dim s)
    (hyperplane_rows (Semilinear.vars s) (Array.of_list (hyperplane_exprs s)))

(* ------------------------------------------------------------------ *)
(* The staged sweep                                                    *)
(* ------------------------------------------------------------------ *)

(* A pruned set compiled once per sweep into rows [a . x + c OP 0], one
   contiguous block per disjunct.  Every section the sweep takes fixes a
   trailing axis, so all levels share the coefficient arrays: a level with
   [k] live axes reads the first [k] entries of each row, and its section
   at x_(k-1) = t only moves the constants, to c + a_(k-1) t.

   [normals.(k)] lists one row per distinct constraint hyperplane (the
   interned [Eq] forms of the atoms, as in [hyperplane_constrs]) whose
   length-[k] normal is nonzero, with that normal and the disjuncts the
   hyperplane bounds.  [flat.(k)] lists the rows whose length-[k] normal is
   zero: at a level with [k] axes each is a constant, true or false for
   its whole disjunct. *)
type stage = {
  n : int;
  coef : Q.t array array;
  ops : Linconstr.op array;
  disj : (int * int) array;  (** [first, last) row range per disjunct *)
  row_disj : int array;
  top : Q.t array;  (** the constants of the full set *)
  normals : (int * Q.t array * int list) array array;
  flat : int array array;
}

let compile s =
  let n = Semilinear.dim s and vars = Semilinear.vars s in
  let dnf = Semilinear.dnf s in
  let atoms = Array.of_list (List.concat dnf) in
  let coef =
    Array.map (fun a -> Array.map (Linexpr.coeff (Linconstr.expr a)) vars) atoms
  in
  let row_disj = Array.make (Array.length atoms) 0 in
  let next = ref 0 in
  let disj =
    Array.of_list
      (List.mapi
         (fun d conj ->
           let first = !next in
           next := first + List.length conj;
           Array.fill row_disj first (!next - first) d;
           (first, !next))
         dnf)
  in
  (* hyperplane tag -> (first row, bounded disjuncts), in row order *)
  let owners = Hashtbl.create 64 and hyps = ref [] in
  Array.iteri
    (fun r a ->
      let tg = Linconstr.tag (Linconstr.make (Linconstr.expr a) Linconstr.Eq) in
      match Hashtbl.find_opt owners tg with
      | Some ds -> if not (List.mem row_disj.(r) !ds) then ds := row_disj.(r) :: !ds
      | None ->
          let ds = ref [ row_disj.(r) ] in
          Hashtbl.add owners tg ds;
          hyps := (r, ds) :: !hyps)
    atoms;
  let hyps = List.rev !hyps in
  let zero_prefix k r = Array.for_all Q.is_zero (Array.sub coef.(r) 0 k) in
  {
    n;
    coef;
    ops = Array.map Linconstr.op atoms;
    disj;
    row_disj;
    top = Array.map (fun a -> Linexpr.constant (Linconstr.expr a)) atoms;
    normals =
      Array.init (n + 1) (fun k ->
          Array.of_list
            (List.filter_map
               (fun (r, ds) ->
                 if zero_prefix k r then None else Some (r, Array.sub coef.(r) 0 k, !ds))
               hyps));
    flat =
      Array.init (n + 1) (fun k ->
          Array.of_list (List.filter (zero_prefix k) (List.init (Array.length atoms) Fun.id)));
  }

(* The section at x_(k-1) = t of a level with [k] live axes. *)
let shift st k consts t =
  Array.mapi
    (fun r c ->
      let a = st.coef.(r).(k - 1) in
      if Q.is_zero a then c else Q.add c (Q.mul a t))
    consts

(* Feasibility of [{ y : a . y <= b }] in [f] unknowns, by Fourier-Motzkin
   on dense rows, eliminating the last unknown each round. *)
let rec dense_feasible f rows =
  if List.for_all (fun (_, b) -> Q.sign b >= 0) rows then true (* y = 0 *)
  else if f = 0 then false
  else begin
    let j = f - 1 in
    let pos = List.filter (fun (a, _) -> Q.sign a.(j) > 0) rows
    and neg = List.filter (fun (a, _) -> Q.sign a.(j) < 0) rows
    and zero = List.filter (fun (a, _) -> Q.is_zero a.(j)) rows in
    let combined =
      List.concat_map
        (fun (ap, bp) ->
          List.map
            (fun (an, bn) ->
              let cp = ap.(j) and cn = Q.neg an.(j) in
              ( Array.init j (fun i -> Q.add (Q.mul cn ap.(i)) (Q.mul cp an.(i))),
                Q.add (Q.mul cn bp) (Q.mul cp bn) ))
            neg)
        pos
    in
    dense_feasible j (List.map (fun (a, b) -> (Array.sub a 0 j, b)) zero @ combined)
  end

(* Boundedness of a satisfiable disjunct, decided on its relaxation: a
   nonempty polyhedron is bounded iff its recession cone { d : A d <= 0 }
   (equality rows: A d = 0) is {0}.  A nonzero d has a first nonzero
   coordinate d_i, which scales to +-1; so the test is the infeasibility,
   for every i and sign, of d_0 = .. = d_(i-1) = 0, d_i = +-1 over the
   rows' normals, the later coordinates free.  In 2-D that is interval
   arithmetic on d_1. *)
let disjunct_bounded st (first, last) =
  let n = st.n in
  let open_dir i sign =
    let f = n - 1 - i in
    let rows =
      List.concat_map
        (fun r ->
          let a = st.coef.(r) in
          let y = Array.sub a (i + 1) f and b = Q.neg (Q.mul sign a.(i)) in
          match st.ops.(r) with
          | Linconstr.Le | Linconstr.Lt -> [ (y, b) ]
          | Linconstr.Eq -> [ (y, b); (Array.map Q.neg y, Q.neg b) ])
        (List.init (last - first) (fun j -> first + j))
    in
    dense_feasible f rows
  in
  let rec go i =
    i >= n || ((not (open_dir i Q.one)) && (not (open_dir i Q.minus_one)) && go (i + 1))
  in
  go 0

(* The top of every public entry: compile a pruned, nonempty set and
   decide boundedness once.  Sections of a bounded set are bounded, so no
   level below needs the test. *)
let stage_bounded s =
  let st = compile s in
  if not (Array.for_all (disjunct_bounded st) st.disj) then raise Unbounded;
  st

let staged s =
  let s = prune s in
  if Semilinear.dnf s = [] then None else Some (stage_bounded s)

let relaxed_holds op x =
  match op with
  | Linconstr.Eq -> Q.is_zero x
  | Linconstr.Le | Linconstr.Lt -> Q.sign x <= 0

(* The disjuncts whose relaxation can meet a level with [k] axes: none of
   their constant rows fails there. *)
let live_disjuncts st k consts =
  let live = Array.make (Array.length st.disj) true in
  Array.iter
    (fun r -> if not (relaxed_holds st.ops.(r) consts.(r)) then live.(st.row_disj.(r)) <- false)
    st.flat.(k);
  live

let row_value st consts k r v =
  let a = st.coef.(r) in
  let acc = ref consts.(r) in
  for j = 0 to k - 1 do
    if not (Q.is_zero a.(j)) then acc := Q.add !acc (Q.mul a.(j) v.(j))
  done;
  !acc

let in_closure st consts k live v =
  let rec ok r last =
    r >= last || (relaxed_holds st.ops.(r) (row_value st consts k r v) && ok (r + 1) last)
  in
  let rec any d =
    d < Array.length st.disj
    && ((live.(d) && ok (fst st.disj.(d)) (snd st.disj.(d))) || any (d + 1))
  in
  any 0

(* Breakpoints of a level with [k >= 1] live axes: the distinct last
   coordinates of the arrangement vertices between [lo] and [hi], the
   extreme last coordinates of the vertices that lie in the relaxed closure
   of some disjunct.  Every relaxed disjunct is bounded here, so its
   last-axis extremes sit at its own vertices, which the arrangement
   contains: [lo, hi] is the union's last-axis extent, the very interval
   two LPs per disjunct computed.  Scanning the vertices sorted by last
   coordinate from both ends keeps the closure tests few.  Below the top,
   a disjunct that a constant row rules out bounds nothing, so only the
   hyperplanes of the others are enumerated. *)
let level_breakpoints st k consts =
  let live = live_disjuncts st k consts in
  let rows =
    Array.of_list
      (List.filter_map
         (fun (r, nrm, ds) ->
           if List.exists (fun d -> live.(d)) ds then Some (nrm, Q.neg consts.(r)) else None)
         (Array.to_list st.normals.(k)))
  in
  let verts = Array.of_list (enum_vertices ~n:k rows) in
  let last v = v.(k - 1) in
  Array.sort (fun u v -> Q.compare (last u) (last v)) verts;
  let nv = Array.length verts in
  let closed v = in_closure st consts k live v in
  let rec up i = if i >= nv then None else if closed verts.(i) then Some i else up (i + 1) in
  match up 0 with
  | None -> []
  | Some i ->
      let rec down j = if closed verts.(j) then j else down (j - 1) in
      let rec collect acc j =
        if j < i then acc
        else
          let t = last verts.(j) in
          match acc with
          | t' :: _ when Q.equal t t' -> collect acc (j - 1)
          | _ -> collect (t :: acc) (j - 1)
      in
      collect [] (down (nv - 1))

(* Measure of a one-axis level: the union of the disjuncts' intervals.  An
   atom with a zero coefficient decides its whole disjunct (strictness
   included); otherwise strictness never changes a length, so the
   intervals are taken closed. *)
let interval_measure st consts =
  let spans =
    Array.fold_left
      (fun spans (first, last) ->
        let lo = ref None and hi = ref None and live = ref true in
        let r = ref first in
        while !live && !r < last do
          let a = st.coef.(!r).(0) and c = consts.(!r) in
          (if Q.is_zero a then
             live :=
               match st.ops.(!r) with
               | Linconstr.Le -> Q.sign c <= 0
               | Linconstr.Lt -> Q.sign c < 0
               | Linconstr.Eq -> Q.is_zero c
           else
             let x = Q.neg (Q.div c a) in
             let up () = hi := Some (match !hi with Some h -> Q.min h x | None -> x)
             and down () = lo := Some (match !lo with Some l -> Q.max l x | None -> x) in
             match st.ops.(!r) with
             | Linconstr.Eq -> up (); down ()
             | Linconstr.Le | Linconstr.Lt -> if Q.sign a > 0 then up () else down ());
          incr r
        done;
        if not !live then spans
        else
          match (!lo, !hi) with
          | Some l, Some h -> if Q.lt l h then (l, h) :: spans else spans
          | _ -> raise Unbounded)
      [] st.disj
  in
  let rec total acc cur = function
    | [] -> ( match cur with Some (l, h) -> Q.add acc (Q.sub h l) | None -> acc)
    | (l, h) :: rest -> (
        match cur with
        | Some (cl, ch) when Q.leq l ch -> total acc (Some (cl, Q.max ch h)) rest
        | Some (cl, ch) -> total (Q.add acc (Q.sub ch cl)) (Some (l, h)) rest
        | None -> total acc (Some (l, h)) rest)
  in
  total Q.zero None (List.sort (fun (a, _) (b, _) -> Q.compare a b) spans)

(* The [k] interpolation abscissae of a piece (a, b): a + (j + 1) (b - a) / (k + 1). *)
let sample_points k a b =
  let width = Q.sub b a in
  List.init k (fun j -> Q.add a (Q.mul width (Q.of_ints (j + 1) (k + 1))))

(* Open Newton-Cotes weights for those abscissae: the integral over (a, b)
   of the degree-(< k) interpolant of values f_j is (b - a) sum_j w_j f_j,
   the same exact rational as integrating the interpolated polynomial. *)
let quadrature_weights k =
  let nodes = sample_points k Q.zero Q.one in
  Array.init k (fun j ->
      Upoly.integrate
        (Upoly.interpolate (List.mapi (fun i s -> (s, if i = j then Q.one else Q.zero)) nodes))
        Q.zero Q.one)

let weight_table = Array.init 9 quadrature_weights
let weights k = if k < Array.length weight_table then weight_table.(k) else quadrature_weights k

let tick_level k bps cells =
  if T.enabled () then begin
    T.add tm_breakpoints (List.length bps);
    T.add tm_sweep_cells cells;
    T.add tm_sweep_sections (k * cells)
  end

(* The measure of a level with [k] live axes, sequentially: the sweep of
   the paper's Theorem 3 proof.  On each open piece between consecutive
   breakpoints the section measure is a polynomial of degree < k
   (Lemma 5), integrated exactly from its values at the [k] sample
   points.  Inner levels may carry extra breakpoints (vertices of
   hyperplanes that no longer bound anything there); a polynomial split at
   an extra point integrates to the same value. *)
let rec level_measure st k consts =
  if k = 1 then interval_measure st consts
  else begin
    T.incr tm_sweep_calls;
    let bps = level_breakpoints st k consts in
    let w = weights k in
    let rec go acc cells = function
      | a :: (b :: _ as rest) ->
          let sum =
            List.fold_left
              (fun (sum, j) t ->
                (Q.add sum (Q.mul w.(j) (level_measure st (k - 1) (shift st k consts t))), j + 1))
              (Q.zero, 0) (sample_points k a b)
            |> fst
          in
          go (Q.add acc (Q.mul (Q.sub b a) sum)) (cells + 1) rest
      | _ -> (acc, cells)
    in
    let v, cells = go Q.zero 0 bps in
    tick_level k bps cells;
    v
  end

let breakpoints s =
  match staged s with None -> [] | Some st -> level_breakpoints st st.n st.top

(* The last-axis extent of the (bounded, pruned) set's relaxation, by one
   LP pair per disjunct. *)
let last_axis_extent s =
  let n = Semilinear.dim s in
  let last = Linexpr.var (Semilinear.vars s).(n - 1) in
  let relax a =
    match Linconstr.op a with
    | Linconstr.Lt -> Linconstr.make (Linconstr.expr a) Linconstr.Le
    | Linconstr.Le | Linconstr.Eq -> a
  in
  List.fold_left
    (fun acc conj ->
      match Simplex.range last (List.map relax conj) with
      | None -> acc
      | Some (Some lo, Some hi) -> (
          match acc with
          | None -> Some (lo, hi)
          | Some (l, h) -> Some (Q.min l lo, Q.max h hi))
      | Some _ -> raise Unbounded)
    None (Semilinear.dnf s)

(* [breakpoints s] computed against a predecessor set: when the last-axis
   extent is unchanged (the predecessor's is the first and last of
   [old_bps]) and every hyperplane of [old_set] survives into [s]'s pool,
   the subsets drawn solely from old hyperplanes already contributed their
   vertices to [old_bps], so only subsets meeting a fresh hyperplane are
   enumerated and their filtered last coordinates merged into [old_bps].
   [sort_uniq] of the merge equals the full recomputation's value exactly,
   so downstream interpolation stays byte-identical.  Any failed
   precondition falls back to the full enumeration. *)
let breakpoints_since ~old_set ~old_bps s =
  let s = prune s in
  if Semilinear.dnf s = [] then []
  else
      let st = stage_bounded s in
      let full () = level_breakpoints st st.n st.top in
      let os = prune old_set in
      match (Semilinear.dnf os, old_bps, last_axis_extent s) with
      | [], _, _ | _, [], _ | _, _, None -> full ()
      | _, olo :: _, Some (lo, hi) ->
          let ohi = List.fold_left (fun _ t -> t) olo old_bps in
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
              let n = st.n in
              let exprs = Array.of_list (List.map Linconstr.expr (fresh @ kept)) in
              let vertex_ts =
                enum_vertices ~n ~n_fresh:(List.length fresh)
                  (hyperplane_rows (Semilinear.vars s) exprs)
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

(* The top level of the sweep, kept as Lemma 5 pieces: the polynomial on
   each open interval (a, b) between consecutive breakpoints, interpolated
   from the section measures at [sample_points].  Every interval [reuse]
   declines is interpolated; all their sections go to the pool as one
   batch ([?domains]; the levels below run sequentially inside their
   domain).  The sample values are reassembled in slot order and combined
   by exact rational arithmetic, so the result is byte-identical for every
   domain count. *)
let stage_pieces ~domains ~reuse st bps =
  let n = st.n in
  let rec collect acc = function
    | a :: (b :: _ as rest) when Q.lt a b ->
        let piece =
          match reuse a b with
          | Some poly -> `Old poly
          | None -> `New (sample_points n a b)
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
  let h t = level_measure st (n - 1) (shift st n st.top t) in
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

let section_pieces ?(domains = 1) ?(reuse = fun _ _ -> None) s bps =
  stage_pieces ~domains ~reuse (compile (prune s)) bps

let sweep_pieces ?(domains = 1) s =
  match staged s with
  | None -> []
  | Some st ->
      stage_pieces ~domains ~reuse:(fun _ _ -> None) st
        (level_breakpoints st st.n st.top)

let volume_sweep ?(domains = 1) s =
  match staged s with
  | None -> Q.zero
  | Some st when st.n = 0 -> Q.one
  | Some st when st.n = 1 -> interval_measure st st.top
  | Some st ->
      T.incr tm_sweep_calls;
      let bps = level_breakpoints st st.n st.top in
      let pieces = stage_pieces ~domains ~reuse:(fun _ _ -> None) st bps in
      tick_level st.n bps (List.length pieces);
      integrate pieces

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
