open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_poly
open Cqa_vc
module T = Cqa_telemetry.Telemetry

(* Atom decisions of the compiled oracle: settled by the double filter,
   or re-decided in exact arithmetic because the double value lay within
   the atom's error bound.  The totals for a fixed sample are a sum over
   points, hence independent of the chunking. *)
let tm_sure = T.counter "vc.filter.sure"
let tm_fallback = T.counter "vc.filter.fallback"

(* ------------------------------------------------------------------ *)
(* The compiled membership oracle (DESIGN.md §15)                      *)
(* ------------------------------------------------------------------ *)

type op = Lt | Le | Eq

(* [sum_m qc.(m) * prod_{i in mv.(m)} x_i + q0] over the sample slots,
   with double images [fc]/[f0] of the coefficients and [err] bounding
   |double evaluation - exact value| on the unit cube. *)
type poly = {
  q0 : Q.t;
  qc : Q.t array;
  mv : int array array;
  f0 : float;
  fc : float array;
  err : float;
}

type node =
  | Const of bool
  | Atom of poly * op  (* [poly op 0] *)
  | Rel of (poly * op) array array  (* some disjunct has every row *)
  | Not of node
  | And of node * node
  | Or of node * node
  | Exact of Ast.formula  (* [Eval.holds] under the point's environment *)

type t = {
  db : Db.t;
  slots : Var.t array;
  env0 : Q.t Var.Map.t;
  filter : bool;
  root : node;
}

(* A point of a flat sample (numerator row starting at [base]) or a
   rational point. *)
type point = Flat of int array * int | Pt of Q.t array

(* A double image of [q] and a bound on its distance from [q], from the
   verified enclosure [lo <= q <= hi]. *)
let approx q =
  let e = Fdyadic.of_q q in
  let lo = e.Fdyadic.lo and hi = e.Fdyadic.hi in
  if lo = hi then (lo, 0.)
  else
    let f = Float.min hi (Float.max lo (Q.to_float q)) in
    let f =
      if Float.is_finite f then f
      else if Float.is_finite lo then lo
      else if Float.is_finite hi then hi
      else 0.
    in
    (f, Float.max (Fdyadic.add_up hi (-.f)) (Fdyadic.add_up f (-.lo)))

(* The a-priori bound of §15, following [float_value]'s operation order:
   for each computed value [a] is an upper bound of its magnitude and [e]
   of its distance from the exact value, everything rounded up.  A product
   by a coordinate in [0, 1) errs by at most u|z| + 2^-1075 (rounding,
   underflow); a sum by at most u|z|. *)
let u = 0x1p-53
let eta = 0x1p-1075
let ( +^ ) = Fdyadic.add_up
let ( *^ ) = Fdyadic.mul_up

let error_bound (f0, w0) mons =
  snd
    (Array.fold_left
      (fun (a, e) ((fc, wc), vs) ->
        let ma, me =
          Array.fold_left
            (fun (ma, me) _ -> ((ma *^ (1. +^ u)) +^ eta, me +^ (u *^ ma) +^ eta))
            (Float.abs fc, wc)
            vs
        in
        ((a +^ ma) *^ (1. +^ u), e +^ me +^ (u *^ (a +^ ma))))
      (Float.abs f0, w0)
      mons)

let make_poly q0 (mons : (Q.t * int array) list) =
  let qc = Array.of_list (List.map fst mons) in
  let mv = Array.of_list (List.map snd mons) in
  let c0 = approx q0 and cs = Array.map approx qc in
  {
    q0;
    qc;
    mv;
    f0 = fst c0;
    fc = Array.map fst cs;
    err = error_bound c0 (Array.combine cs mv);
  }

let sign_holds op s = match op with Lt -> s < 0 | Le -> s <= 0 | Eq -> s = 0

(* A polynomial without monomials decides its atom once, exactly. *)
let atom_node p op =
  if p.qc = [||] then Const (sign_holds op (Q.sign p.q0)) else Atom (p, op)

exception Not_compiled

let compile ?params db slots f =
  let env0 =
    match params with
    | None -> Var.Map.empty
    | Some (xs, a) ->
        let env = ref Var.Map.empty in
        Array.iteri (fun i v -> env := Var.Map.add v a.(i) !env) xs;
        !env
  in
  (* later slots shadow earlier ones, as in an environment built in order *)
  let slot_of = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace slot_of v i) slots;
  let value v =
    match Hashtbl.find_opt slot_of v with
    | Some i -> `Slot i
    | None -> (
        match Var.Map.find_opt v env0 with
        | Some c -> `Value c
        | None -> raise Not_compiled)
  in
  let rec term_poly (t : Ast.term) =
    match t with
    | Ast.Const c -> Mpoly.constant c
    | Ast.TVar x -> (
        match value x with `Slot _ -> Mpoly.var x | `Value c -> Mpoly.constant c)
    | Ast.Add (a, b) -> Mpoly.add (term_poly a) (term_poly b)
    | Ast.Mul (a, b) -> Mpoly.mul (term_poly a) (term_poly b)
    | Ast.Sum _ -> raise Not_compiled
  in
  let of_mpoly p =
    let q0 = ref Q.zero and mons = ref [] in
    List.iter
      (fun (m, c) ->
        match m with
        | [] -> q0 := c
        | _ ->
            let vs =
              List.concat_map
                (fun (v, k) -> List.init k (fun _ -> Hashtbl.find slot_of v))
                m
            in
            mons := (c, Array.of_list vs) :: !mons)
      (Mpoly.terms p);
    make_poly !q0 (List.rev !mons)
  in
  (* One Linconstr row with the relation's coordinates replaced by the
     arguments' slots or parameter values: an atom, or a constant. *)
  let row coords args c =
    let cf = Array.make (Array.length slots) Q.zero in
    let q0 = ref (Linexpr.constant (Linconstr.expr c)) in
    List.iter
      (fun (v, k) ->
        match args.(Hashtbl.find coords v) with
        | `Slot i -> cf.(i) <- Q.add cf.(i) k
        | `Value a -> q0 := Q.add !q0 (Q.mul k a))
      (Linexpr.coeffs (Linconstr.expr c));
    let mons = ref [] in
    Array.iteri (fun i k -> if not (Q.is_zero k) then mons := (k, [| i |]) :: !mons) cf;
    let op = match Linconstr.op c with Linconstr.Lt -> Lt | Le -> Le | Eq -> Eq in
    atom_node (make_poly !q0 (List.rev !mons)) op
  in
  let relation f r args =
    match Db.find db r with
    | Db.Semilin s when List.length args = Semilinear.dim s ->
        let args = Array.of_list (List.map value args) in
        let coords = Hashtbl.create 8 in
        Array.iteri (fun i v -> Hashtbl.replace coords v i) (Semilinear.vars s);
        (* a disjunct with a false row drops out, true rows drop out of
           their disjunct *)
        let conj atoms =
          let nodes = List.map (row coords args) atoms in
          if List.exists (function Const false -> true | _ -> false) nodes then None
          else
            Some
              (Array.of_list
                 (List.filter_map (function Atom (p, op) -> Some (p, op) | _ -> None) nodes))
        in
        let ds = List.filter_map conj (Semilinear.dnf s) in
        if List.exists (fun d -> d = [||]) ds then Const true
        else if ds = [] then Const false
        else Rel (Array.of_list ds)
    | _ -> Exact f
    | exception Not_found -> Exact f
  in
  let rec go (f : Ast.formula) =
    match f with
    | Ast.True -> Const true
    | Ast.False -> Const false
    | Ast.Cmp (op, a, b) -> (
        match of_mpoly (Mpoly.sub (term_poly a) (term_poly b)) with
        | p -> atom_node p (match op with Ast.Clt -> Lt | Ast.Cle -> Le | Ast.Ceq -> Eq)
        | exception Not_compiled -> Exact f)
    | Ast.Rel (r, args) -> ( try relation f r args with Not_compiled -> Exact f)
    | Ast.Not g -> Not (go g)
    | Ast.And (g, h) -> And (go g, go h)
    | Ast.Or (g, h) -> Or (go g, go h)
    | Ast.Exists _ | Ast.Forall _ -> Exact f
  in
  { db; slots; env0; filter = Flatrow.enabled (); root = go f }

(* The coordinates as rationals: built only for exact decisions. *)
let coord pt i =
  match pt with Flat (ks, base) -> Prng.q_of_bits53 ks.(base + i) | Pt qs -> qs.(i)

let exact_sign p pt =
  let acc = ref p.q0 in
  Array.iteri
    (fun m c ->
      acc := Q.add !acc (Array.fold_left (fun t i -> Q.mul t (coord pt i)) c p.mv.(m)))
    p.qc;
  Q.sign !acc

(* Straight-line double evaluation at a flat point: every coordinate
   [k * 2^-53] is an exact double. *)
let float_value p ks base =
  let acc = ref p.f0 in
  for m = 0 to Array.length p.fc - 1 do
    let vs = p.mv.(m) in
    let t = ref p.fc.(m) in
    for i = 0 to Array.length vs - 1 do
      t := !t *. (Float.of_int ks.(base + vs.(i)) *. 0x1p-53)
    done;
    acc := !acc +. !t
  done;
  !acc

(* |value - exact| <= err, so a value beyond the bound has the exact
   sign; within it (or NaN) the exact rational decides. *)
let atom o p op pt =
  match pt with
  | Flat (ks, base) when o.filter ->
      let v = float_value p ks base in
      if v > p.err then begin
        T.incr tm_sure;
        false
      end
      else if v < -.p.err then begin
        T.incr tm_sure;
        op <> Eq
      end
      else begin
        T.incr tm_fallback;
        sign_holds op (exact_sign p pt)
      end
  | _ -> sign_holds op (exact_sign p pt)

let env_of o pt =
  let env = ref o.env0 in
  Array.iteri (fun i v -> env := Var.Map.add v (coord pt i) !env) o.slots;
  !env

let rec holds o pt = function
  | Const b -> b
  | Atom (p, op) -> atom o p op pt
  | Rel ds -> Array.exists (Array.for_all (fun (p, op) -> atom o p op pt)) ds
  | Not g -> not (holds o pt g)
  | And (g, h) -> holds o pt g && holds o pt h
  | Or (g, h) -> holds o pt g || holds o pt h
  | Exact g -> Eval.holds o.db (env_of o pt) g

let test o ks =
  let dim = Array.length o.slots in
  fun j -> holds o (Flat (ks, j * dim)) o.root

let member db yvars f =
  let o = compile db yvars f in
  fun pt -> holds o (Pt pt) o.root

(* ------------------------------------------------------------------ *)
(* Theorem 4 estimates                                                 *)
(* ------------------------------------------------------------------ *)

let estimate ?domains ~m o ks =
  Approx_volume.fraction_of_bits (Approx_volume.score ?domains ~n:m (test o ks))

let approx_query ?domains ~prng ~m db ~yvars f =
  let ks = Approx_volume.sample_points ?domains ~prng ~dim:(Array.length yvars) m in
  estimate ?domains ~m (compile db yvars f) ks

let approx_query_family ?domains ~prng ~m db ~xvars ~yvars f ~params =
  let ks = Approx_volume.sample_points ?domains ~prng ~dim:(Array.length yvars) m in
  List.map (fun a -> (a, estimate ?domains ~m (compile ~params:(xvars, a) db yvars f) ks)) params
