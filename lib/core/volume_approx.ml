open Cqa_logic
open Cqa_vc

let env_of vars pt =
  let env = ref Var.Map.empty in
  Array.iteri (fun i v -> env := Var.Map.add v pt.(i) !env) vars;
  !env

let member db yvars f pt =
  Eval.holds db (env_of yvars pt) f

let approx_query ?domains ~prng ~m db ~yvars f =
  let dim = Array.length yvars in
  Approx_volume.estimate_random ?domains ~prng ~dim ~n:m (member db yvars f)

let approx_query_family ?domains ~prng ~m db ~xvars ~yvars f ~params =
  let dim = Array.length yvars in
  (* staged so the parameter environment is built once per parameter, not
     once per membership test *)
  let mem a =
    let base = env_of xvars a in
    fun pt ->
      let env =
        Array.to_list yvars
        |> List.mapi (fun i v -> (v, pt.(i)))
        |> List.fold_left (fun e (v, c) -> Var.Map.add v c e) base
      in
      Eval.holds db env f
  in
  Approx_volume.estimate_family_random ?domains ~prng ~dim ~n:m ~mem params
