open Cqa_arith

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  bits53 t mod bound

let float t = ldexp (float_of_int (bits53 t)) (-53)

let two53 = Bigint.shift_left Bigint.one 53

let q_of_bits53 k = Q.make (Bigint.of_int k) two53

let q_unit t = q_of_bits53 (bits53 t)

let q_in t lo hi = Q.add lo (Q.mul (q_unit t) (Q.sub hi lo))

let split t =
  let s = int64 t in
  { state = s }
