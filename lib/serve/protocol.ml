(* Newline-delimited JSON request/response codec for the query service.
   Parsing is strict (unknown shapes become structured errors, never
   crashes); rendering is by hand into a Buffer — the response grammar is
   small and flat, and this keeps the hot serving path allocation-light. *)

open Cqa_arith
module J = Cqa_telemetry.Tjson

type admission = Degrade | Reject

let admission_of_string = function
  | "degrade" -> Some Degrade
  | "reject" -> Some Reject
  | _ -> None

let admission_to_string = function Degrade -> "degrade" | Reject -> "reject"

type target =
  | By_query of { query : string; schema : string option; params : string list }
  | By_id of int

type vol_opts = {
  budget : float option;
  admission : admission option;
  eps : float option;
  delta : float option;
  seed : int option;
}

let max_sample_points = 1_000_000

let default_opts =
  { budget = None; admission = None; eps = None; delta = None; seed = None }

type request =
  | Ping
  | Plan_req of { target : target; budget : float option }
  | Vol of { target : target; args : Q.t array; opts : vol_opts }
  | Vol_batch of { target : target; bindings : Q.t array list; opts : vol_opts }
  | Update of { schema : string; rel : string; region : string; inserted : bool }
  | Db_version of { schema : string }
  | Stats
  | Reset
  | Shutdown

type parsed = { rid : string option; req : request }

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let json_string = J.quote
let json_q q = json_string (Q.to_string q)
let json_float f = Printf.sprintf "%.17g" f

let ok ?rid ~op fields =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "{\"ok\":true,\"op\":";
  J.add_quoted buf op;
  (match rid with
  | Some r ->
      Buffer.add_string buf ",\"id\":";
      Buffer.add_string buf r
  | None -> ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf k;
      Buffer.add_string buf "\":";
      Buffer.add_string buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let error ?rid ?op ~code msg =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "{\"ok\":false";
  (match op with
  | Some o ->
      Buffer.add_string buf ",\"op\":";
      J.add_quoted buf o
  | None -> ());
  (match rid with
  | Some r ->
      Buffer.add_string buf ",\"id\":";
      Buffer.add_string buf r
  | None -> ());
  Buffer.add_string buf ",\"error\":{\"code\":";
  J.add_quoted buf code;
  Buffer.add_string buf ",\"msg\":";
  J.add_quoted buf msg;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Value parsing                                                       *)
(* ------------------------------------------------------------------ *)

let q_of_json = function
  | J.Num n when Float.is_integer n && Float.abs n <= 1e15 ->
      Ok (Q.of_int (int_of_float n))
  | J.Num n -> (
      match Q.of_float_dyadic n with
      | q -> Ok q
      | exception Invalid_argument m -> Error m)
  | J.Str s -> (
      match Q.of_string s with
      | q -> Ok q
      | exception Invalid_argument m -> Error m)
  | _ -> Error "expected a number or a \"p/q\" string"

let schema_of_spec spec =
  let parts =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun s -> String.trim s <> "")
  in
  let parse_one part =
    match String.split_on_char ':' (String.trim part) with
    | [ name; arity ] -> (
        match int_of_string_opt (String.trim arity) with
        | Some a when a > 0 -> Ok (String.trim name, a)
        | _ -> Error (Printf.sprintf "bad arity in schema entry %S" part))
    | _ -> Error (Printf.sprintf "bad schema entry %S (want Name:arity)" part)
  in
  let rec all acc = function
    | [] -> Ok (Cqa_logic.Schema.of_list (List.rev acc))
    | p :: rest -> (
        match parse_one p with
        | Ok e -> all (e :: acc) rest
        | Error m -> Error m)
  in
  all [] parts

let vars_of_spec names =
  names
  |> List.filter_map (fun s ->
         let s = String.trim s in
         if s = "" then None else Some (Cqa_logic.Var.of_string s))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let member_string name obj =
  Option.bind (J.member name obj) J.to_string

let member_float name obj = Option.bind (J.member name obj) J.to_float

let rid_of obj =
  match J.member "id" obj with
  | Some (J.Str s) -> Some (json_string s)
  | Some (J.Num n) ->
      Some
        (if Float.is_integer n && Float.abs n <= 1e15 then
           Printf.sprintf "%d" (int_of_float n)
         else json_float n)
  | _ -> None

let target_of obj =
  match J.member "plan" obj with
  | Some (J.Num n) when Float.is_integer n -> Ok (By_id (int_of_float n))
  | Some _ -> Error ("bad-request", "\"plan\" must be an integer plan id")
  | None -> (
      match member_string "query" obj with
      | Some query ->
          let params =
            match J.member "params" obj with
            | Some (J.Arr vs) -> List.filter_map J.to_string vs
            | _ -> []
          in
          Ok (By_query { query; schema = member_string "schema" obj; params })
      | None ->
          Error ("bad-request", "request needs a \"query\" or a \"plan\" id"))

let opts_of obj =
  {
    budget = member_float "budget" obj;
    admission =
      Option.bind (member_string "admission" obj) admission_of_string;
    eps = member_float "eps" obj;
    delta = member_float "delta" obj;
    seed = Option.map int_of_float (member_float "seed" obj);
  }

let args_of name obj =
  match J.member name obj with
  | None -> Ok [||]
  | Some (J.Arr vs) ->
      let rec conv acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | v :: rest -> (
            match q_of_json v with
            | Ok q -> conv (q :: acc) rest
            | Error m -> Error ("bad-args", Printf.sprintf "\"%s\": %s" name m))
      in
      conv [] vs
  | Some _ -> Error ("bad-args", Printf.sprintf "\"%s\" must be an array" name)

let bindings_of obj =
  match J.member "bindings" obj with
  | Some (J.Arr rows) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | J.Arr vs :: rest -> (
            let rec row racc = function
              | [] -> Ok (Array.of_list (List.rev racc))
              | v :: vrest -> (
                  match q_of_json v with
                  | Ok q -> row (q :: racc) vrest
                  | Error m -> Error ("bad-args", "\"bindings\": " ^ m))
            in
            match row [] vs with
            | Ok r -> conv (r :: acc) rest
            | Error e -> Error e)
        | _ :: _ ->
            Error ("bad-args", "\"bindings\" must be an array of arrays")
      in
      conv [] rows
  | _ -> Error ("bad-args", "\"vol_batch\" needs a \"bindings\" array")

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse line =
  match J.parse line with
  | Error msg -> Error ("parse-error", msg)
  | Ok (J.Obj _ as obj) -> (
      let rid = rid_of obj in
      let finish req = Ok { rid; req } in
      match member_string "op" obj with
      | None -> Error ("bad-request", "missing \"op\" field")
      | Some "ping" -> finish Ping
      | Some "stats" -> finish Stats
      | Some "reset" -> finish Reset
      | Some "shutdown" -> finish Shutdown
      | Some "plan" ->
          let* target = target_of obj in
          finish (Plan_req { target; budget = member_float "budget" obj })
      | Some "vol" ->
          let* target = target_of obj in
          let* args = args_of "args" obj in
          finish (Vol { target; args; opts = opts_of obj })
      | Some "vol_batch" ->
          let* target = target_of obj in
          let* bindings = bindings_of obj in
          finish (Vol_batch { target; bindings; opts = opts_of obj })
      | Some (("insert" | "remove") as op) -> (
          match
            ( member_string "schema" obj,
              member_string "rel" obj,
              member_string "region" obj )
          with
          | Some schema, Some rel, Some region ->
              finish (Update { schema; rel; region; inserted = op = "insert" })
          | _ ->
              Error
                ( "bad-request",
                  Printf.sprintf
                    "%S needs \"schema\", \"rel\" and \"region\" strings" op ))
      | Some "db_version" -> (
          match member_string "schema" obj with
          | Some schema -> finish (Db_version { schema })
          | None -> Error ("bad-request", "\"db_version\" needs a \"schema\" string"))
      | Some op -> Error ("unknown-op", Printf.sprintf "unknown op %S" op))
  | Ok _ -> Error ("bad-request", "request must be a JSON object")
