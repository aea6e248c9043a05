type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

type t = {
  severity : severity;
  code : string;
  path : string list;
  message : string;
}

let make severity ~code ~path fmt =
  Format.kasprintf (fun message -> { severity; code; path; message }) fmt

let info ~code ~path fmt = make Info ~code ~path fmt
let warning ~code ~path fmt = make Warning ~code ~path fmt
let error ~code ~path fmt = make Error ~code ~path fmt
let path_to_string = function [] -> "/" | p -> "/" ^ String.concat "/" p

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare_severity b.severity a.severity with
      | 0 -> (
          match compare a.path b.path with
          | 0 -> compare a.code b.code
          | c -> c)
      | c -> c)
    ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let pp fmt d =
  Format.fprintf fmt "%s[%s] at %s: %s"
    (severity_to_string d.severity)
    d.code
    (path_to_string d.path)
    d.message

let pp_list fmt ds =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp fmt ds

let to_json d =
  let q = Cqa_telemetry.Tjson.quote in
  Printf.sprintf {|{"severity":"%s","code":%s,"path":%s,"message":%s}|}
    (severity_to_string d.severity)
    (q d.code)
    (q (path_to_string d.path))
    (q d.message)

let list_to_json ds = "[" ^ String.concat "," (List.map to_json ds) ^ "]"

let to_sexp d =
  Printf.sprintf "(diagnostic (severity %s) (code %s) (path %S) (message %S))"
    (severity_to_string d.severity)
    d.code
    (path_to_string d.path)
    d.message
