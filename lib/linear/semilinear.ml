open Cqa_arith
open Cqa_logic
module T = Cqa_telemetry.Telemetry

type t = { vars : Var.t array; dnf : Linformula.dnf }

let dim t = Array.length t.vars
let vars t = t.vars
let dnf t = t.dnf

let check_vars vars =
  let s = Var.Set.of_list (Array.to_list vars) in
  if Var.Set.cardinal s <> Array.length vars then
    invalid_arg "Semilinear.make: duplicate coordinate variables";
  s

let make vars d =
  let allowed = check_vars vars in
  let used = Linformula.dnf_vars d in
  if not (Var.Set.subset used allowed) then
    invalid_arg "Semilinear.make: constraint mentions a foreign variable";
  { vars; dnf = List.filter Fourier_motzkin.satisfiable_conj d }

let default_vars n = Array.init n (fun i -> Var.of_string (Printf.sprintf "x%d" i))

let of_formula vars f =
  let allowed = check_vars vars in
  let free = Linformula.free_vars f in
  if not (Var.Set.subset free allowed) then
    invalid_arg "Semilinear.of_formula: free variable not a coordinate";
  { vars; dnf = Fourier_motzkin.qe f }

let empty n = { vars = default_vars n; dnf = [] }
let full n = { vars = default_vars n; dnf = [ [] ] }

let box ranges =
  let vars = default_vars (Array.length ranges) in
  let conj =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           [ Linconstr.ge (Linexpr.var vars.(i)) (Linexpr.const lo);
             Linconstr.le (Linexpr.var vars.(i)) (Linexpr.const hi) ])
         (Array.to_list ranges))
  in
  { vars; dnf = [ conj ] }

let unit_cube n = box (Array.make n (Q.zero, Q.one))

let halfspace vars a =
  let _ = check_vars vars in
  make vars [ [ a ] ]

let of_conjunction vars conj = make vars [ conj ]

let env_of t pt =
  if Array.length pt <> dim t then invalid_arg "Semilinear: point dimension";
  let env = ref Var.Map.empty in
  Array.iteri (fun i v -> env := Var.Map.add v pt.(i) !env) t.vars;
  !env

let mem t pt = Linformula.dnf_holds t.dnf (env_of t pt)

(* Align [b] to the coordinates of [a]. *)
let align a b =
  if dim a <> dim b then invalid_arg "Semilinear: dimension mismatch";
  if a.vars = b.vars then b.dnf
  else begin
    let table = Hashtbl.create 8 in
    Array.iteri (fun i v -> Hashtbl.replace table v a.vars.(i)) b.vars;
    let rn v = match Hashtbl.find_opt table v with Some v' -> v' | None -> v in
    List.map (List.map (Linconstr.rename rn)) b.dnf
  end

let union a b = { a with dnf = a.dnf @ align a b }

let inter a b =
  let db = align a b in
  let prod =
    List.concat_map
      (fun ca -> List.filter_map (fun cb -> Linformula.simplify_conjunction (ca @ cb)) db)
      a.dnf
  in
  { a with dnf = List.filter Fourier_motzkin.satisfiable_conj prod }

let compl a = { a with dnf = Fourier_motzkin.complement_dnf a.dnf }
let diff a b = inter a (compl { a with dnf = align a b })
let is_empty a = not (Fourier_motzkin.satisfiable_dnf a.dnf)
let subset a b = is_empty (diff a b)
let equal a b = subset a b && subset b a

let sample_point a =
  match Fourier_motzkin.sample_point_dnf a.dnf with
  | None -> None
  | Some env ->
      Some
        (Array.map
           (fun v -> Option.value ~default:Q.zero (Var.Map.find_opt v env))
           a.vars)

let relax conj =
  List.map
    (fun atom ->
      match Linconstr.op atom with
      | Linconstr.Lt -> Linconstr.make (Linconstr.expr atom) Linconstr.Le
      | Linconstr.Le | Linconstr.Eq -> atom)
    conj

let enumerate_finite a =
  let n = dim a in
  let point_of conj =
    if not (Fourier_motzkin.satisfiable_conj conj) then Some None
    else begin
      let relaxed = relax conj in
      let rec coords i acc =
        if i >= n then Some (Some (Array.of_list (List.rev acc)))
        else begin
          match Simplex.range (Linexpr.var a.vars.(i)) relaxed with
          | None -> Some None
          | Some (Some lo, Some hi) when Q.equal lo hi -> coords (i + 1) (lo :: acc)
          | Some _ -> None
        end
      in
      coords 0 []
    end
  in
  (* Lexicographic comparison through [Q.compare]: the polymorphic compare
     would order rationals by representation (two-tier integers), not by
     value. *)
  let cmp_pt (p : Q.t array) (q : Q.t array) =
    let rec go i =
      if i >= Array.length p then 0
      else
        let c = Q.compare p.(i) q.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let rec go acc = function
    | [] -> Some (List.sort_uniq cmp_pt (List.rev acc))
    | conj :: rest -> (
        match point_of conj with
        | None -> None
        | Some None -> go acc rest
        | Some (Some pt) -> go (pt :: acc) rest)
  in
  go [] a.dnf

let project_last a =
  let n = dim a in
  if n = 0 then invalid_arg "Semilinear.project_last: dimension 0";
  let last = a.vars.(n - 1) in
  { vars = Array.sub a.vars 0 (n - 1);
    dnf = Fourier_motzkin.eliminate_var_dnf last a.dnf }

let section_last a c =
  let n = dim a in
  if n = 0 then invalid_arg "Semilinear.section_last: dimension 0";
  let last = a.vars.(n - 1) in
  let sub conj =
    Linformula.simplify_conjunction
      (List.map (fun atom -> Linconstr.subst atom last (Linexpr.const c)) conj)
  in
  { vars = Array.sub a.vars 0 (n - 1); dnf = List.filter_map sub a.dnf }

let last_axis_cell a pt =
  let n = dim a in
  if n = 0 then invalid_arg "Semilinear.last_axis_cell: dimension 0";
  if Array.length pt <> n - 1 then
    invalid_arg "Semilinear.last_axis_cell: point dimension";
  let env = ref Var.Map.empty in
  for i = 0 to n - 2 do
    env := Var.Map.add a.vars.(i) pt.(i) !env
  done;
  let last = a.vars.(n - 1) in
  let restrict conj =
    Linformula.simplify_conjunction
      (List.map (fun atom -> Linconstr.eval_partial atom !env) conj)
  in
  List.fold_left
    (fun acc conj ->
      match restrict conj with
      | None -> acc
      | Some c -> Cell1.union acc (Cell1.of_constraints last c))
    Cell1.empty a.dnf

let bounding_box_raw a =
  if a.dnf = [] then None
  else begin
    let n = dim a in
    let ranges = Array.make n None in
    let ok = ref true in
    List.iter
      (fun conj ->
        if !ok then
          for i = 0 to n - 1 do
            if !ok then begin
              match Simplex.range (Linexpr.var a.vars.(i)) (relax conj) with
              | None -> () (* infeasible disjunct: contributes nothing *)
              | Some (Some lo, Some hi) ->
                  ranges.(i) <-
                    (match ranges.(i) with
                    | None -> Some (lo, hi)
                    | Some (l, h) -> Some (Q.min l lo, Q.max h hi))
              | Some _ -> ok := false
            end
          done)
      a.dnf;
    if not !ok then None
    else if Array.exists (fun r -> r = None) ranges then
      (* every satisfiable disjunct contributed; None remains only if all
         disjuncts were infeasible *)
      None
    else Some (Array.map (function Some r -> r | None -> assert false) ranges)
  end

(* Bounding boxes cost two LPs per (disjunct, dimension); the rewriter's
   range analysis reads the same relations' boxes many times per compiled
   query (the volume sweep takes its bounds from its own vertex pass and
   no longer comes here).  Constraints are interned, and the box is invariant
   under both disjunct order and atom order (ranges merge by min/max), so
   the canonical tag key is sound.  Lock-striped for the domain-parallel
   volume engine (same structural key semantics as the polymorphic Hashtbl
   it replaces); a full stripe resets, as the whole table used to. *)
module Bbox_tbl = Cqa_conc.Striped_tbl.Make (struct
  type t = Var.t list * int list list

  let equal (a : t) (b : t) = a = b
  let hash (k : t) = Hashtbl.hash k
end)

let bbox_memo : (Q.t * Q.t) array option Bbox_tbl.t =
  Bbox_tbl.create ~name:"semilinear.bbox_memo" ~cap:16384
    ~evict:Cqa_conc.Striped_tbl.Reset ()

let clear_bbox_cache () = Bbox_tbl.reset bbox_memo

let bounding_box a =
  if a.dnf = [] then None
  else begin
    let key =
      ( Array.to_list a.vars,
        List.sort compare
          (List.map
             (fun conj -> List.sort_uniq Int.compare (List.map Linconstr.tag conj))
             a.dnf) )
    in
    match Bbox_tbl.find_opt bbox_memo key with
    | Some r -> r
    | None ->
        let r = bounding_box_raw a in
        Bbox_tbl.replace bbox_memo key r;
        r
  end

let is_bounded a = is_empty a || bounding_box a <> None

let clamp_unit a = inter a (unit_cube (dim a))

let rename_vars vars a =
  let _ = check_vars vars in
  if Array.length vars <> dim a then invalid_arg "Semilinear.rename_vars";
  { vars; dnf = align { vars; dnf = [] } a }

let disjunct_count a = List.length a.dnf
let atom_count a = List.fold_left (fun acc c -> acc + List.length c) 0 a.dnf

let pp fmt a =
  Format.fprintf fmt "@[<v>dim %d over (%a):@ %a@]" (dim a)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") Var.pp)
    (Array.to_list a.vars) Linformula.pp_dnf a.dnf

(* ------------------------------------------------------------------ *)
(* Coalescing exactly-adjacent DNF pieces                              *)
(* ------------------------------------------------------------------ *)

(* Removals are computed as [inter s (compl r)], which tiles what is left
   of each disjunct with one piece per atom of [r]; repeated updates made
   the disjunct list grow without bound (ROADMAP item 3's leftover).
   Pieces cut by the same hyperplane glue back together exactly:

     R /\ (e <= 0)  \/  R /\ (-e OP 0)  =  R

   whenever the two sides cover the whole line, i.e. unless both atoms
   are strict (Lt/Lt misses the boundary e = 0 itself; Eq atoms never
   cover).  Constraints are interned with primitive coefficients, so the
   complementary-atom test is a pointer comparison of [expr b] against
   the interned negation of [expr a] — no arithmetic. *)

let tm_coalesced = T.counter "db.update.coalesced"

let complementary a b =
  (match (Linconstr.op a, Linconstr.op b) with
  | Linconstr.Eq, _ | _, Linconstr.Eq -> false
  | Linconstr.Lt, Linconstr.Lt -> false
  | _ -> true)
  && Linexpr.equal (Linconstr.expr b) (Linexpr.neg (Linconstr.expr a))

let coalesce_dnf d =
  let canon = List.map (List.sort_uniq Linconstr.compare) d in
  (* merge two disjuncts when they agree on every atom but one
     complementary pair; both inputs are sorted, so a single merge walk
     finds the symmetric difference *)
  let try_merge c1 c2 =
    let rec walk shared o1 o2 l1 l2 =
      match (l1, l2) with
      | [], [] -> Some (shared, o1, o2)
      | x :: r1, [] -> walk shared (x :: o1) o2 r1 []
      | [], y :: r2 -> walk shared o1 (y :: o2) [] r2
      | x :: r1, y :: r2 ->
          let c = Linconstr.compare x y in
          if c = 0 then walk (x :: shared) o1 o2 r1 r2
          else if c < 0 then walk shared (x :: o1) o2 r1 l2
          else walk shared o1 (y :: o2) l1 r2
    in
    match walk [] [] [] c1 c2 with
    | Some (shared, [ a ], [ b ]) when complementary a b || complementary b a
      ->
        Some (List.rev shared)
    | _ -> None
  in
  let merged_any = ref false in
  let rec pass acc = function
    | [] -> List.rev acc
    | c :: rest -> (
        let rec find before = function
          | [] -> None
          | c' :: after -> (
              match try_merge c c' with
              | Some m -> Some (m, List.rev_append before after)
              | None -> find (c' :: before) after)
        in
        match find [] rest with
        | Some (m, rest') ->
            merged_any := true;
            T.incr tm_coalesced;
            (* the merged piece may glue onto yet another piece: keep it
               in play within the same pass *)
            pass acc (m :: rest')
        | None -> pass (c :: acc) rest)
  in
  let rec fix d =
    merged_any := false;
    let d' = pass [] d in
    if !merged_any then fix d' else d'
  in
  fix canon |> List.sort_uniq (List.compare Linconstr.compare)

(* ------------------------------------------------------------------ *)
(* Deltas: localized edits with a change summary                       *)
(* ------------------------------------------------------------------ *)

type delta = {
  inserted : bool;
  updated : t;
  delta_box : (Q.t * Q.t) array option;
  delta_empty : bool;
}

let delta_of ~inserted ~updated r =
  let delta_empty = is_empty r in
  {
    inserted;
    updated;
    delta_box = (if delta_empty then None else bounding_box r);
    delta_empty;
  }

let insert_region s r =
  if is_empty r then { inserted = true; updated = s; delta_box = None; delta_empty = true }
  else delta_of ~inserted:true ~updated:(union s r) r

let remove_region s r =
  if is_empty r then { inserted = false; updated = s; delta_box = None; delta_empty = true }
  else
    let base = diff s r in
    delta_of ~inserted:false ~updated:{ base with dnf = coalesce_dnf base.dnf } r

let insert_polytope s conj = insert_region s (of_conjunction s.vars conj)
let remove_polytope s conj = remove_region s (of_conjunction s.vars conj)
