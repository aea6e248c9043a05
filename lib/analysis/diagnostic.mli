(** Structured diagnostics produced by the static analyzer: a severity, a
    stable machine-readable code, a path into the AST, and a human message.
    Rendered as text, JSON, or s-expressions. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string
val compare_severity : severity -> severity -> int
(** [Error] greatest. *)

type t = {
  severity : severity;
  code : string;  (** stable kind id, e.g. ["nondeterministic-gamma"] *)
  path : string list;  (** root-to-node AST path segments *)
  message : string;
}

val info : code:string -> path:string list -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : code:string -> path:string list -> ('a, Format.formatter, unit, t) format4 -> 'a
val error : code:string -> path:string list -> ('a, Format.formatter, unit, t) format4 -> 'a
(** Format-string constructors: [error ~code ~path "m = %d" 3]. *)

val path_to_string : string list -> string
(** ["/sum/gamma"]; the empty path renders as ["/"]. *)

val sort : t list -> t list
(** Most severe first; ties broken by path, then code (stable report
    order). *)

val count : severity -> t list -> int
val has_errors : t list -> bool

val pp : Format.formatter -> t -> unit
(** [error[code] at /path: message]. *)

val pp_list : Format.formatter -> t list -> unit

val to_json : t -> string
val list_to_json : t list -> string

val to_sexp : t -> string
