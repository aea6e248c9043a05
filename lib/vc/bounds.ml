let log2 x = log x /. log 2.0

let blumer_sample_size ~eps ~delta ~vc_dim =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "Bounds.blumer_sample_size: eps";
  if not (delta > 0.0 && delta < 1.0) then invalid_arg "Bounds.blumer_sample_size: delta";
  let a = 4.0 /. eps *. log2 (2.0 /. delta) in
  let b = 8.0 *. float_of_int vc_dim /. eps *. log2 (13.0 /. eps) in
  let m = ceil (max a b) in
  (* saturate instead of overflowing for vanishing eps or delta *)
  if m >= float_of_int max_int then max_int else int_of_float m + 1

let goldberg_jerrum_c ~k ~p ~q ~d ~s =
  let e = exp 1.0 in
  16.0 *. float_of_int k
  *. float_of_int (p + q)
  *. (log2 (8.0 *. e *. float_of_int d *. float_of_int p *. float_of_int s) +. 1.0)

let vc_upper_bound ~c ~db_size = c *. log2 (float_of_int (max 2 db_size))

type km_size = {
  sample_size : int;
  sample_vars : int;
  translates : int;
  quantifiers : float;
  atoms : float;
}

let km_formula_size ~eps ~delta ~vc_dim ~m ~atoms_in_phi =
  (* the construction needs eps/2-accuracy from the sample (footnote 1 of
     the paper) *)
  let sample_size = blumer_sample_size ~eps:(eps /. 2.0) ~delta ~vc_dim in
  let sample_vars = sample_size * m in
  let translates =
    int_of_float (ceil (float_of_int sample_vars /. log2 (1.0 /. delta))) + 1
  in
  (* one universally quantified sample block plus one block per translate *)
  let quantifiers = float_of_int sample_vars *. float_of_int (translates + 1) in
  (* each translate re-evaluates phi on each of the M sample points *)
  let atoms =
    float_of_int atoms_in_phi *. float_of_int sample_size *. float_of_int translates
  in
  { sample_size; sample_vars; translates; quantifiers; atoms }
