open Cqa_arith
open Cqa_linear
open Cqa_poly

type piece = Volume_exact.piece = { lo : Q.t; hi : Q.t; poly : Upoly.t }

type t = piece list

let section_volume_function ?domains s =
  if Semilinear.dim s < 2 then
    invalid_arg "Volume_param.section_volume_function: dim < 2";
  Volume_exact.sweep_pieces ?domains s

(* Incremental rebuild after a database update.  When the predecessor set
   is known the breakpoint partition is maintained incrementally
   ({!Volume_exact.breakpoints_since}); a new piece's polynomial is then
   only re-interpolated when the piece is [dirty] (its interval meets the
   delta slab) or falls outside the old pieces' coverage; everywhere else
   the sections — and hence the measure function — are unchanged, so any
   old piece overlapping the new interval carries the {e same} polynomial
   (two polynomials of degree below [n] agreeing on an interval of
   positive length are equal, and interpolation is canonical), making the
   reused piece byte-identical to a cold recomputation. *)
let refresh ?domains ?old_set ~old ~dirty s =
  if Semilinear.dim s < 2 then invalid_arg "Volume_param.refresh: dim < 2";
  let bps =
    match (old_set, old) with
    | Some os, first :: _ ->
        (* the old pieces are contiguous, so their boundaries are exactly
           the predecessor's breakpoint list *)
        let old_bps = first.lo :: List.map (fun p -> p.hi) old in
        Volume_exact.breakpoints_since ~old_set:os ~old_bps s
    | _ -> Volume_exact.breakpoints s
  in
  let coverage =
    match (old, List.rev old) with
    | first :: _, last :: _ -> Some (first.lo, last.hi)
    | _ -> None
  in
  let recomputed = ref 0 and reused = ref 0 in
  let reuse a b =
    let poly =
      if dirty a b then None
      else
        match coverage with
        | Some (clo, chi) when Q.leq clo a && Q.leq b chi ->
            (* old pieces are consecutive: any piece with positive-length
               overlap determines the polynomial on (a, b) *)
            List.find_opt (fun p -> Q.lt p.lo b && Q.lt a p.hi) old
            |> Option.map (fun p -> p.poly)
        | _ -> None
    in
    incr (if poly = None then recomputed else reused);
    poly
  in
  let pieces = Volume_exact.section_pieces ?domains ~reuse s bps in
  (pieces, !recomputed, !reused)

let eval t x =
  let rec go = function
    | [] -> Q.zero
    | p :: rest ->
        if Q.leq p.lo x && Q.leq x p.hi then Upoly.eval p.poly x else go rest
  in
  go t

let integrate = Volume_exact.integrate

let degree t = List.fold_left (fun acc p -> max acc (Upoly.degree p.poly)) 0 t

let is_piecewise_linear t = degree t <= 1

let to_semialgebraic_graph t =
  let coords = Semialg.vars (Semialg.empty 2) in
  let tv = Mpoly.var coords.(0) and vv = Mpoly.var coords.(1) in
  let poly_in_t p =
    List.fold_left
      (fun acc (i, c) -> Mpoly.add acc (Mpoly.scale c (Mpoly.pow tv i)))
      Mpoly.zero
      (List.mapi (fun i c -> (i, c)) (Upoly.coeffs p))
  in
  let piece_dnf p =
    [ { Semialg.poly = Mpoly.sub (Mpoly.constant p.lo) tv; op = Semialg.Le };
      { Semialg.poly = Mpoly.sub tv (Mpoly.constant p.hi); op = Semialg.Le };
      { Semialg.poly = Mpoly.sub vv (poly_in_t p.poly); op = Semialg.Eq } ]
  in
  Semialg.make coords (List.map piece_dnf t)

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list (fun f p ->
         Format.fprintf f "on (%a, %a): %a" Q.pp p.lo Q.pp p.hi Upoly.pp p.poly))
    t
