open Cqa_logic
open Cqa_core
open Cqa_vc

type estimate = {
  atoms : int;
  quantifiers : int;
  free_var_count : int;
  sum_count : int;
  tuple_width : int;
  endpoints_assumed : int;
  projected_qe_atoms : float;
  projected_sum_points : float;
  km : Bounds.km_size option;
}

(* The syntactic walk and the worst-case projections are shared with the
   runtime guard (Exec.volume_guarded) through Dispatch, so the
   static diagnostics and the budget-guarded dispatch can never disagree on
   a query's projected cost. *)
let build ~endpoints ~free_var_count (p : Dispatch.cost_profile) =
  let projected_qe_atoms = Dispatch.projected_qe_atoms p in
  let projected_sum_points = Dispatch.projected_sum_points ~endpoints p in
  let km =
    if free_var_count = 0 then None
    else
      Some
        (Bounds.km_formula_size ~eps:0.1 ~delta:0.25
           ~vc_dim:(free_var_count + 2) ~m:free_var_count
           ~atoms_in_phi:(max 1 p.Dispatch.atoms))
  in
  {
    atoms = p.Dispatch.atoms;
    quantifiers = p.Dispatch.quantifiers;
    free_var_count;
    sum_count = p.Dispatch.sum_count;
    tuple_width = p.Dispatch.tuple_width;
    endpoints_assumed = endpoints;
    projected_qe_atoms;
    projected_sum_points;
    km;
  }

let estimate_formula ?(endpoints = 8) f =
  build ~endpoints
    ~free_var_count:(Var.Set.cardinal (Ast.free_vars f))
    (Dispatch.profile_formula f)

let estimate_term ?(endpoints = 8) t =
  build ~endpoints
    ~free_var_count:(Var.Set.cardinal (Ast.term_free_vars t))
    (Dispatch.profile_term t)

let check ?(threshold = 1e6) e =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if e.projected_qe_atoms > threshold then
    add
      (Diagnostic.warning ~code:"qe-blowup" ~path:[]
         "projected quantifier-elimination blowup: eliminating %d quantifiers \
          from %d atoms can reach ~%.2g constraints (threshold %.2g); \
          consider the Theorem 4 sampling estimator"
         e.quantifiers e.atoms e.projected_qe_atoms threshold);
  if e.projected_sum_points > threshold then
    add
      (Diagnostic.warning ~code:"sum-blowup" ~path:[]
         "projected summation enumeration: %d tuple variables over ~%d \
          endpoints each is ~%.2g index points (threshold %.2g)"
         e.tuple_width e.endpoints_assumed e.projected_sum_points threshold);
  (match e.km with
  | Some km ->
      add
        (Diagnostic.info ~code:"cost" ~path:[]
           "%d atoms, %d quantifiers; projected QE atoms %.2g; a \
            derandomized eps=1/10 approximation would need ~%.2g atoms and \
            ~%.2g quantified reals (Section 3 model)"
           e.atoms e.quantifiers e.projected_qe_atoms km.Bounds.atoms
           km.Bounds.quantifiers)
  | None ->
      add
        (Diagnostic.info ~code:"cost" ~path:[]
           "%d atoms, %d quantifiers; projected QE atoms %.2g"
           e.atoms e.quantifiers e.projected_qe_atoms));
  List.rev !diags

let pp_estimate fmt e =
  Format.fprintf fmt
    "%d atoms, %d quantifiers, %d free vars; projected QE atoms %.3g" e.atoms
    e.quantifiers e.free_var_count e.projected_qe_atoms;
  if e.sum_count > 0 then
    Format.fprintf fmt
      "; %d summations (tuple width %d, ~%.3g index points at %d endpoints)"
      e.sum_count e.tuple_width e.projected_sum_points e.endpoints_assumed;
  match e.km with
  | Some km ->
      Format.fprintf fmt
        "; KM approximation ~%.3g atoms / ~%.3g quantified reals"
        km.Bounds.atoms km.Bounds.quantifiers
  | None -> ()

let estimate_to_json e =
  let km_json =
    match e.km with
    | None -> "null"
    | Some km ->
        Printf.sprintf
          {|{"sample_size":%d,"sample_vars":%d,"translates":%d,"quantifiers":%g,"atoms":%g}|}
          km.Bounds.sample_size km.Bounds.sample_vars km.Bounds.translates
          km.Bounds.quantifiers km.Bounds.atoms
  in
  Printf.sprintf
    {|{"atoms":%d,"quantifiers":%d,"free_vars":%d,"sum_count":%d,"tuple_width":%d,"endpoints_assumed":%d,"projected_qe_atoms":%g,"projected_sum_points":%g,"km":%s}|}
    e.atoms e.quantifiers e.free_var_count e.sum_count e.tuple_width
    e.endpoints_assumed e.projected_qe_atoms e.projected_sum_points km_json
