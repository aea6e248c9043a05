(** Minimal dependency-free JSON reader for the machine-readable outputs
    this repo produces itself: [--stats=json] snapshots, analyzer reports
    and the BENCH*.json benchmark files; plus the string quoting every
    JSON writer in the repo shares.  A strict recursive-descent parser
    over the full JSON grammar (numbers are [float]s; [\uXXXX] escapes are
    UTF-8 encoded, surrogate pairs left unrecombined). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val of_file : string -> (t, string) result
(** Parse a whole file. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val keys : t -> string list
(** Object keys in document order; [[]] on non-objects. *)

val to_float : t -> float option
val to_string : t -> string option

(** {1 Writing} *)

val add_quoted : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal: quoted, with the double quote,
    backslash, newline, CR and tab escaped by name and other control bytes
    as [\u00XX]. *)

val quote : string -> string
(** [add_quoted] into a fresh string. *)
