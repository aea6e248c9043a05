(* The cqa serve daemon end to end, over in-process background servers on
   Unix-domain sockets: protocol errors, admission control (reject and
   degrade-to-sampler), the byte-identity of micro-batched concurrent
   execution with single-client sequential execution, coalescing
   accounting, disconnect robustness, and the reset/stats/vol_batch ops. *)

open Cqa_serve
module T = Cqa_telemetry.Telemetry
module J = Cqa_telemetry.Tjson

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqa-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(configure = fun c -> c) f =
  let addr = Server.Unix_path (fresh_sock ()) in
  let cfg = configure (Server.default_config addr) in
  let h = Server.start_background cfg in
  Fun.protect ~finally:(fun () -> Server.stop_background h) (fun () -> f addr)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let member name resp =
  match J.parse resp with
  | Ok obj -> J.member name obj
  | Error m -> Alcotest.failf "unparseable response %s: %s" resp m

let is_ok resp =
  match member "ok" resp with Some (J.Bool b) -> b | _ -> false

let error_code resp =
  match Option.bind (member "error" resp) (J.member "code") with
  | Some (J.Str c) -> c
  | _ -> Alcotest.failf "response has no error code: %s" resp

let str_field name resp =
  match member name resp with
  | Some (J.Str s) -> s
  | _ -> Alcotest.failf "response has no string %S: %s" name resp

let int_field name resp =
  match Option.bind (member name resp) J.to_float with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "response has no number %S: %s" name resp

let counter_value name =
  match List.assoc_opt name (T.snapshot ()).T.counters with
  | Some v -> v
  | None -> 0

(* The workload shape the throughput benches also use: two parameter
   slots, VOL over (y1, y2) = (v^2 - u^2) / 2 for 0 <= u <= v. *)
let pq = "u < y1 /\\ y1 < v /\\ 0 <= y2 /\\ y2 <= y1 /\\ 0 <= y1"
let pq_json = Protocol.json_string pq

let pq_plan_req =
  Printf.sprintf {|{"op":"plan","query":%s,"params":["u","v"]}|} pq_json

(* ------------------------------------------------------------------ *)
(* Protocol errors                                                     *)
(* ------------------------------------------------------------------ *)

let test_protocol_errors () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let code line = error_code (Client.request c line) in
  check_str "malformed JSON" "parse-error" (code "{nope");
  check_str "non-object request" "bad-request" (code "[1,2]");
  check_str "missing op" "bad-request" (code {|{"query":"0 <= x"}|});
  check_str "unknown op" "unknown-op" (code {|{"op":"frobnicate"}|});
  check_str "vol without query or plan" "bad-request" (code {|{"op":"vol"}|});
  check_str "non-integer plan id" "bad-request"
    (code {|{"op":"vol","plan":"x"}|});
  check_str "unknown plan id" "unknown-plan"
    (code {|{"op":"vol","plan":424242}|});
  check_str "unparseable query" "parse-error"
    (code {|{"op":"vol","query":"<<<"}|});
  check_str "malformed binding" "bad-args"
    (code {|{"op":"vol","query":"0 <= x /\\ x <= 1","args":[true]}|});
  (* the connection survived every error above *)
  check "still serving after errors" true
    (is_ok (Client.request c {|{"op":"ping"}|}))

(* A 2 MiB line with no terminator is over the 1 MiB cap: its sender gets
   one line-too-long error and a close, and other clients are served. *)
let test_line_too_long () =
  with_server @@ fun addr ->
  with_client addr @@ fun other ->
  (with_client addr @@ fun c ->
   (* the server closes mid-send, so the write may fail *)
   (try Client.send_raw c (String.make (2 lsl 20) 'x')
    with Unix.Unix_error _ -> ());
   check_str "over-long line refused" "line-too-long"
     (error_code (Client.recv_line c));
   check "connection closed after the error" true
     (match Client.recv_line c with
     | _ -> false
     | exception (End_of_file | Unix.Unix_error _) -> true));
  check "other client still served" true
    (is_ok (Client.request other {|{"op":"ping"}|}))

let test_ping_stats () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let pong = Client.request c {|{"op":"ping","id":"x-1"}|} in
  check "pong" true (is_ok pong);
  check_str "id echoed" "x-1" (str_field "id" pong);
  let stats = Client.request c {|{"op":"stats"}|} in
  check "stats ok" true (is_ok stats);
  check "stats carries plan_cache stripes" true
    (match member "plan_cache" stats with
    | Some (J.Arr (_ :: _)) -> true
    | _ -> false);
  check "stats counts this connection" true
    (match Option.bind (member "serve" stats) (J.member "conns") with
    | Some (J.Num n) -> n >= 1.
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Volumes: exact values, plan ids, vol_batch, reset                   *)
(* ------------------------------------------------------------------ *)

let test_vol_roundtrip () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let q = {|0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= x|} in
  let resp =
    Client.request c (Printf.sprintf {|{"op":"vol","query":"%s"}|} q)
  in
  check "vol ok" true (is_ok resp);
  check_str "triangle volume" "1/2" (str_field "vol" resp);
  (* the same spelling resolves to the same plan; By_id agrees *)
  let plan_resp =
    Client.request c (Printf.sprintf {|{"op":"plan","query":"%s"}|} q)
  in
  let pid = int_field "plan" plan_resp in
  check_int "vol response names the same plan" pid (int_field "plan" resp);
  let by_id =
    Client.request c (Printf.sprintf {|{"op":"vol","plan":%d}|} pid)
  in
  check_str "By_id volume identical" "1/2" (str_field "vol" by_id)

(* Only a plan request registers an id: a by-query vol names its plan id
   but leaves the registry alone. *)
let test_by_query_registers_nothing () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let q = {|"query":"0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 2 * x"|} in
  let req op target =
    Client.request c (Printf.sprintf {|{"op":"%s",%s}|} op target)
  in
  let pid = int_field "plan" (req "vol" q) in
  let by_id () = req "vol" (Printf.sprintf {|"plan":%d|} pid) in
  check_str "by-query vol registered no id" "unknown-plan"
    (error_code (by_id ()));
  check_int "plan request names the same id" pid
    (int_field "plan" (req "plan" q));
  check_str "registered id answers" "1" (str_field "vol" (by_id ()))

(* The planner rewrites before keying the cache, so syntactically distinct
   but semantically equal spellings resolve to one server-side plan id. *)
let test_rewritten_plan_sharing () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let plan_of q =
    let resp =
      Client.request c (Printf.sprintf {|{"op":"plan","query":"%s"}|} q)
    in
    check "plan ok" true (is_ok resp);
    int_field "plan" resp
  in
  let a = plan_of {|0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= x|} in
  (* reordered conjuncts, a scaled atom, and constant padding *)
  let b = plan_of {|y <= x /\\ 0 <= 2 * y /\\ 1 < 2 /\\ x <= 1 /\\ 0 <= x|} in
  check_int "spellings share one server-side plan" a b;
  let v = Client.request c (Printf.sprintf {|{"op":"vol","plan":%d}|} a) in
  check_str "shared plan answers for both" "1/2" (str_field "vol" v)

let test_parameterized_vol_batch_reset () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let plan_resp = Client.request c pq_plan_req in
  check "parameterized plan compiles" true (is_ok plan_resp);
  let pid = int_field "plan" plan_resp in
  let vol_at u v =
    Client.request c
      (Printf.sprintf {|{"op":"vol","plan":%d,"args":["%s","%s"]}|} pid u v)
  in
  check_str "vol(0,1) = 1/2" "1/2" (str_field "vol" (vol_at "0" "1"));
  check_str "vol(1/4,1) = 15/32" "15/32"
    (str_field "vol" (vol_at "1/4" "1"));
  check_str "arity enforced" "bad-args"
    (error_code
       (Client.request c
          (Printf.sprintf {|{"op":"vol","plan":%d,"args":["0"]}|} pid)));
  let batch =
    Client.request c
      (Printf.sprintf
         {|{"op":"vol_batch","plan":%d,"bindings":[["0","1"],["1/4","1"],["0","1"]]}|}
         pid)
  in
  check "vol_batch ok" true (is_ok batch);
  (match member "vols" batch with
  | Some (J.Arr [ J.Str a; J.Str b; J.Str a' ]) ->
      check_str "batch[0]" "1/2" a;
      check_str "batch[1]" "15/32" b;
      check_str "batch[2] repeats batch[0]" "1/2" a'
  | _ -> Alcotest.failf "bad vols array: %s" batch);
  (* reset forgets registered plan ids *)
  check "reset ok" true (is_ok (Client.request c {|{"op":"reset"}|}));
  check_str "plan id gone after reset" "unknown-plan"
    (error_code (vol_at "0" "1"))

(* reset must leave a cold server: the float-filter row cache too *)
let test_reset_clears_row_cache () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let q =
    {|{"op":"vol","query":"exists z . 0 <= x /\\ x <= z /\\ z <= 1 /\\ 0 <= y /\\ y <= x"}|}
  in
  check "vol ok" true (is_ok (Client.request c q));
  if Cqa_linear.Flatrow.enabled () then
    check "the vol cached float rows" true (Cqa_linear.Flatrow.cache_size () > 0);
  check "reset ok" true (is_ok (Client.request c {|{"op":"reset"}|}));
  check_int "row cache empty after reset" 0 (Cqa_linear.Flatrow.cache_size ())

(* the generation stamp hides stale plan-memo entries, but only dropping
   them releases the plans (and their retained samples) *)
let test_reset_clears_plan_memo () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  check "vol ok" true
    (is_ok (Client.request c {|{"op":"vol","query":"0 <= x /\\ x <= 1 /\\ y <= x /\\ 0 <= y"}|}));
  check "the vol filled the plan memo" true (Cqa_analysis.Planner.memo_entries () > 0);
  check "reset ok" true (is_ok (Client.request c {|{"op":"reset"}|}));
  check_int "plan memo empty after reset" 0 (Cqa_analysis.Planner.memo_entries ())

(* a cold server answers a sampled quantified query from an empty holds
   memo, as [serve_qps_cold] assumes *)
let test_reset_clears_holds_memo () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let q =
    {|{"op":"vol","query":"exists z . 0 <= z /\\ z <= 1 /\\ x * x + z * y <= 1 /\\ 0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 1","eps":0.2,"delta":0.2,"seed":3}|}
  in
  let resp = Client.request c q in
  check "sampled vol ok" true (is_ok resp);
  check_str "sampler engine" "approx" (str_field "engine" resp);
  check "the vol filled the holds memo" true (Cqa_core.Eval.memo_entries () > 0);
  check "reset ok" true (is_ok (Client.request c {|{"op":"reset"}|}));
  check_int "holds memo empty after reset" 0 (Cqa_core.Eval.memo_entries ())

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let over_budget_q = {|exists y . 0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= x|}

let test_admission_reject () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let resp =
    Client.request c
      (Printf.sprintf
         {|{"op":"vol","query":"%s","budget":1,"admission":"reject"}|}
         over_budget_q)
  in
  check_str "over-budget request rejected" "over-budget" (error_code resp);
  (* parameterized requests cannot degrade, whatever the admission mode *)
  let _ = Client.request c pq_plan_req in
  let presp =
    Client.request c
      (Printf.sprintf
         {|{"op":"vol","query":%s,"params":["u","v"],"args":["0","1"],"budget":1,"admission":"degrade"}|}
         pq_json)
  in
  check_str "parameterized over-budget never degrades" "over-budget"
    (error_code presp);
  (* within budget everything still runs exactly *)
  let ok_resp =
    Client.request c
      (Printf.sprintf {|{"op":"vol","query":"%s","budget":1e9}|} over_budget_q)
  in
  check_str "same query within budget is exact" "exact"
    (str_field "engine" ok_resp)

let test_admission_degrade () =
  T.enable ();
  T.reset ();
  Fun.protect ~finally:T.disable @@ fun () ->
  let fallbacks0 = counter_value "serve.fallback" in
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let resp =
    Client.request c
      (Printf.sprintf
         {|{"op":"vol","query":"%s","budget":1,"admission":"degrade","eps":0.2,"delta":0.2,"seed":7}|}
         over_budget_q)
  in
  check "degraded request still answers" true (is_ok resp);
  check_str "sampler engine" "approx" (str_field "engine" resp);
  check "sample size reported" true (int_field "sample_size" resp > 0);
  check "serve.fallback counted" true
    (counter_value "serve.fallback" > fallbacks0);
  check "serve.fallback event recorded" true
    (List.exists
       (fun (name, _) -> name = "serve.fallback")
       (T.snapshot ()).T.events)

(* eps or delta outside (0, 1), or a sample size past the ceiling, is a
   bad-args answer before any point is drawn, and the server keeps
   serving *)
let test_degrade_knobs_checked () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let degrade knobs =
    error_code
      (Client.request c
         (Printf.sprintf {|{"op":"vol","query":"%s","budget":1,"admission":"degrade",%s}|}
            over_budget_q knobs))
  in
  check_str "eps 0" "bad-args" (degrade {|"eps":0|});
  check_str "delta 1.5" "bad-args" (degrade {|"delta":1.5|});
  check_str "eps 1e-7 exceeds the sample ceiling" "bad-args" (degrade {|"eps":1e-7|});
  check "still serving" true (is_ok (Client.request c {|{"op":"ping"}|}))

(* ------------------------------------------------------------------ *)
(* Concurrent clients: byte-identity and coalescing                    *)
(* ------------------------------------------------------------------ *)

let bindings_of_cycle = [| ("0", "1"); ("1/4", "1"); ("1/8", "7/8") |]

let vol_req pid ~cycle ~id =
  let u, v = bindings_of_cycle.(cycle mod Array.length bindings_of_cycle) in
  Printf.sprintf {|{"op":"vol","id":%d,"plan":%d,"args":["%s","%s"]}|} id pid
    u v

let test_concurrent_byte_identical () =
  T.enable ();
  T.reset ();
  Fun.protect ~finally:T.disable @@ fun () ->
  with_server @@ fun addr ->
  let conns = 4 and cycles = 3 in
  let total = conns * cycles in
  (* reference: one client, strictly sequential round trips *)
  let pid, sequential =
    with_client addr @@ fun c ->
    let pid = int_field "plan" (Client.request c pq_plan_req) in
    ( pid,
      Array.init total (fun id ->
          Client.request c (vol_req pid ~cycle:(id / conns) ~id)) )
  in
  let batched0 = counter_value "serve.batched" in
  let coalesced0 = counter_value "serve.coalesced" in
  (* the same requests from a lockstep closed-loop population *)
  let cs = Array.init conns (fun _ -> Client.connect addr) in
  let concurrent =
    Fun.protect
      ~finally:(fun () -> Array.iter Client.close cs)
      (fun () ->
        Client.closed_loop ~conns:cs ~cycles (fun ~cycle ~conn ->
            vol_req pid ~cycle ~id:((cycle * conns) + conn)))
  in
  check_int "same cardinality" total (Array.length concurrent);
  Array.iteri
    (fun i seq ->
      check_str
        (Printf.sprintf "response %d byte-identical to sequential" i)
        seq concurrent.(i))
    sequential;
  (* every cycle's four identical requests ran as one computation *)
  check "requests were batched" true
    (counter_value "serve.batched" - batched0 > 0);
  check "duplicate in-window requests coalesced" true
    (counter_value "serve.coalesced" - coalesced0 > 0)

(* ------------------------------------------------------------------ *)
(* Database updates: insert / remove / db_version                      *)
(* ------------------------------------------------------------------ *)

let db_version_req sch = Printf.sprintf {|{"op":"db_version","schema":"%s"}|} sch

let test_update_roundtrip () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let sch = "R:2" in
  let v0 = Client.request c (db_version_req sch) in
  check "db_version ok" true (is_ok v0);
  check_int "fresh schema db at version 0" 0 (int_field "version" v0);
  (* one spelling, resolved once: every vol below hits the same plan and
     the same physical database, so answers move only through updates *)
  let vol () =
    str_field "vol"
      (Client.request c
         (Printf.sprintf {|{"op":"vol","query":"R(x, y)","schema":"%s"}|} sch))
  in
  check_str "empty relation has volume 0" "0" (vol ());
  let update op region =
    Client.request c
      (Printf.sprintf {|{"op":"%s","schema":"%s","rel":"R","region":"%s"}|} op
         sch region)
  in
  let ins =
    update "insert" {|0 <= x0 /\\ x0 <= 1/2 /\\ 0 <= x1 /\\ x1 <= 1/2|}
  in
  check "insert ok" true (is_ok ins);
  check_str "insert echoes op" "insert" (str_field "op" ins);
  check_int "insert bumps the version" 1 (int_field "version" ins);
  (match member "delta_box" ins with
  | Some (J.Arr [ J.Arr _; J.Arr _ ]) -> ()
  | _ -> Alcotest.failf "insert carries no 2-d delta box: %s" ins);
  check_str "insert reflected in queries" "1/4" (vol ());
  let rem =
    update "remove" {|1/4 <= x0 /\\ x0 <= 1/2 /\\ 0 <= x1 /\\ x1 <= 1/2|}
  in
  check_int "remove bumps the version" 2 (int_field "version" rem);
  check_str "removal reflected in queries" "1/8" (vol ());
  (* an empty-region edit is a flagged no-op but still versions *)
  let noop = update "remove" {|x0 <= -5 /\\ 5 <= x0|} in
  check "no-op delta flagged" true
    (match member "delta_empty" noop with Some (J.Bool b) -> b | _ -> false);
  check "no-op delta box is null" true (member "delta_box" noop = Some J.Null);
  check_str "no-op leaves the answer alone" "1/8" (vol ());
  check_int "db_version tracks every update" 3
    (int_field "version" (Client.request c (db_version_req sch)))

(* The same question before and after an insert, by query text and by
   the plan id registered before the insert: neither may replay the plan
   rewritten against the old bounding box of R (where [x >= 2] was
   disjoint from R and compiled to false). *)
let test_vol_after_insert () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let sch = "R:2" in
  let query = {|"query":"R(x, y) /\\ x >= 2","schema":"R:2"|} in
  let insert region =
    Client.request c
      (Printf.sprintf
         {|{"op":"insert","schema":"%s","rel":"R","region":"%s"}|} sch region)
  in
  let vol target =
    str_field "vol" (Client.request c (Printf.sprintf {|{"op":"vol",%s}|} target))
  in
  check "seed insert ok" true
    (is_ok (insert {|0 <= x0 /\\ x0 <= 1 /\\ 0 <= x1 /\\ x1 <= 1|}));
  let pid =
    int_field "plan" (Client.request c (Printf.sprintf {|{"op":"plan",%s}|} query))
  in
  check_str "query disjoint from R" "0" (vol query);
  check "insert ok" true
    (is_ok (insert {|2 <= x0 /\\ x0 <= 3 /\\ 0 <= x1 /\\ x1 <= 1|}));
  check_str "insert reflected in the same query" "1" (vol query);
  check_str "insert reflected through the old plan id" "1"
    (vol (Printf.sprintf {|"plan":%d|} pid))

(* Two questions that rewrite alike under the boxes of the time share a
   plan id: with R = [0,1]^2 both [x >= 2] and [x >= 3] conjoined with R
   compile to false.  After an insert they compile apart, so the shared
   id names no single answer any more and is refused; each question still
   answers correctly by text and by its new id. *)
let test_colliding_ids_after_insert () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let insert region =
    Client.request c
      (Printf.sprintf {|{"op":"insert","schema":"R:2","rel":"R","region":"%s"}|}
         region)
  in
  let q2 = {|"query":"R(x, y) /\\ x >= 2","schema":"R:2"|} in
  let q3 = {|"query":"R(x, y) /\\ x >= 3","schema":"R:2"|} in
  let vol target = Client.request c (Printf.sprintf {|{"op":"vol",%s}|} target) in
  let plan target =
    int_field "plan" (Client.request c (Printf.sprintf {|{"op":"plan",%s}|} target))
  in
  let by_id id = Printf.sprintf {|"plan":%d|} id in
  check "seed insert ok" true
    (is_ok (insert {|0 <= x0 /\\ x0 <= 1 /\\ 0 <= x1 /\\ x1 <= 1|}));
  let id = plan q2 in
  check_int "both questions share one plan id" id (plan q3);
  check_str "shared id before the insert" "0" (str_field "vol" (vol (by_id id)));
  check "insert ok" true
    (is_ok (insert {|2 <= x0 /\\ x0 <= 3 /\\ 0 <= x1 /\\ x1 <= 1|}));
  check_str "shared id refused after the insert" "ambiguous-plan"
    (error_code (vol (by_id id)));
  check_str "x >= 2 by text" "1" (str_field "vol" (vol q2));
  check_str "x >= 3 by text" "0" (str_field "vol" (vol q3));
  check_str "x >= 2 by its new id" "1" (str_field "vol" (vol (by_id (plan q2))));
  check_str "x >= 3 by its new id" "0" (str_field "vol" (vol (by_id (plan q3))))

let test_update_errors () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let code line = error_code (Client.request c line) in
  check_str "insert missing rel" "bad-request"
    (code {|{"op":"insert","schema":"R:2","region":"0 <= x0"}|});
  check_str "remove missing region" "bad-request"
    (code {|{"op":"remove","schema":"R:2","rel":"R"}|});
  check_str "db_version missing schema" "bad-request"
    (code {|{"op":"db_version"}|});
  check_str "malformed schema spec" "bad-request"
    (code {|{"op":"insert","schema":"R:zig","rel":"R","region":"0 <= x0"}|});
  check_str "unknown relation" "bad-request"
    (code {|{"op":"insert","schema":"R:2","rel":"S","region":"0 <= x0"}|});
  check_str "region must be relation-free" "bad-request"
    (code {|{"op":"insert","schema":"R:2","rel":"R","region":"R(x0, x1)"}|});
  check_str "unparseable region" "parse-error"
    (code {|{"op":"insert","schema":"R:2","rel":"R","region":"<<<"}|});
  check "still serving after update errors" true
    (is_ok (Client.request c {|{"op":"ping"}|}))

(* ------------------------------------------------------------------ *)
(* Disconnects                                                         *)
(* ------------------------------------------------------------------ *)

let test_disconnect_mid_request () =
  with_server @@ fun addr ->
  (* half a request then a clean close: the partial line is dropped *)
  (let c = Client.connect addr in
   Client.send_line c {|{"op":"ping"}|};
   ignore (Client.recv_line c);
   Client.send_raw c {|{"op":"vol","query":"0 <= |};
   Client.close c);
  (* a full request whose response the client never reads *)
  (let c = Client.connect addr in
   Client.send_line c {|{"op":"vol","query":"0 <= x /\\ x <= 1"}|};
   Client.close c);
  (* the server survived both and still answers *)
  with_client addr @@ fun c ->
  check "server alive after disconnects" true
    (is_ok (Client.request c {|{"op":"ping"}|}))

let () =
  Alcotest.run "cqa_serve"
    [
      ( "protocol",
        [ Alcotest.test_case "structured errors" `Quick test_protocol_errors;
          Alcotest.test_case "ping and stats" `Quick test_ping_stats;
          Alcotest.test_case "over-long line refused" `Quick
            test_line_too_long ] );
      ( "volumes",
        [ Alcotest.test_case "vol by query and plan id" `Quick
            test_vol_roundtrip;
          Alcotest.test_case "by-query vol registers no id" `Quick
            test_by_query_registers_nothing;
          Alcotest.test_case "rewritten spellings share a plan" `Quick
            test_rewritten_plan_sharing;
          Alcotest.test_case "parameterized vol, vol_batch, reset" `Quick
            test_parameterized_vol_batch_reset;
          Alcotest.test_case "reset clears the row cache" `Quick
            test_reset_clears_row_cache;
          Alcotest.test_case "reset clears the plan memo" `Quick
            test_reset_clears_plan_memo;
          Alcotest.test_case "reset clears the holds memo" `Quick
            test_reset_clears_holds_memo ] );
      ( "admission",
        [ Alcotest.test_case "over-budget rejection" `Quick
            test_admission_reject;
          Alcotest.test_case "degrade to sampler" `Quick
            test_admission_degrade;
          Alcotest.test_case "degrade sampler knobs checked" `Quick
            test_degrade_knobs_checked ] );
      ( "concurrency",
        [ Alcotest.test_case "batched responses byte-identical" `Quick
            test_concurrent_byte_identical ] );
      ( "updates",
        [ Alcotest.test_case "insert, remove, db_version round trip" `Quick
            test_update_roundtrip;
          Alcotest.test_case "vol after an insert, by query and by id" `Quick
            test_vol_after_insert;
          Alcotest.test_case "colliding plan ids after an insert" `Quick
            test_colliding_ids_after_insert;
          Alcotest.test_case "update error codes" `Quick test_update_errors ] );
      ( "disconnects",
        [ Alcotest.test_case "mid-request disconnects tolerated" `Quick
            test_disconnect_mid_request ] );
    ]
