(** Deterministic splitmix64 pseudo-random generator.  Experiments are
    seeded explicitly so every run of the harness is reproducible; the
    paper's randomized constructions (the witness operator W of Theorem 4)
    draw from here. *)

open Cqa_arith

type t

val create : int -> t
(** Seeded generator. *)

val int64 : t -> int64
val bits53 : t -> int
(** Uniform in [0, 2^53). *)

val int : t -> int -> int
(** Uniform in [0, bound); bound must be positive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val q_unit : t -> Q.t
(** Uniform dyadic rational in [0, 1) with denominator 2^53:
    [q_of_bits53 (bits53 t)]. *)

val q_of_bits53 : int -> Q.t
(** [k / 2^53], the unit-interval rational a {!bits53} draw [k] stands
    for. *)

val q_in : t -> Q.t -> Q.t -> Q.t
(** Uniform dyadic-grid rational in [lo, hi). *)

val split : t -> t
(** An independent generator derived from this one. *)
