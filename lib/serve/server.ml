(* The query-service daemon.  One domain runs the event loop and owns all
   sockets; execution fans out to the persistent pool via
   Exec.volume_batch.  Concurrency therefore never touches the engine's
   state invariants: the loop is the only mutator of connection and queue
   state, and the plan/memo layers already tolerate pool-parallel use. *)

open Cqa_arith
open Cqa_core
module T = Cqa_telemetry.Telemetry
module P = Protocol

(* All serve.* probes are traffic- and scheduling-dependent (they count
   whatever clients did), hence exempt from the counter determinism
   contract like the plan.* family. *)
let tm_req = T.counter "serve.req"
let tm_resp_ok = T.counter "serve.resp.ok"
let tm_resp_err = T.counter "serve.resp.error"
let tm_conn_accepted = T.counter "serve.conn.accepted"
let tm_conn_rejected = T.counter "serve.conn.rejected"
let tm_conn_closed = T.counter "serve.conn.closed"
let tm_batched = T.counter "serve.batched"
let tm_coalesced = T.counter "serve.coalesced"
let tm_fallback = T.counter "serve.fallback"
let tm_reject = T.counter "serve.reject"
let tm_update = T.counter "serve.update"
let tm_queue_ns = T.timer "serve.queue_ns"
let tm_exec_ns = T.timer "serve.exec_ns"

type addr = Tcp of string * int | Unix_path of string

type config = {
  addr : addr;
  domains : int;
  budget : float;
  max_clients : int;
  window_us : float;
  max_batch : int;
  admission : P.admission;
}

let default_config addr =
  {
    addr;
    domains = 1;
    budget = infinity;
    max_clients = 64;
    window_us = 500.;
    max_batch = 256;
    admission = P.Degrade;
  }

let plan_cache_json () =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i (s : Cqa_conc.Striped_tbl.stat) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"stripe\":%d,\"size\":%d,\"hits\":%d,\"misses\":%d,\
            \"evicted\":%d,\"contention\":%d}"
           i s.size s.hits s.misses s.evicted s.contention))
    (Plan.cache_stats ());
  Buffer.add_char buf ']';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  mutable alive : bool;
  mutable queued : int;  (* volume requests awaiting a batched response *)
}

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    T.incr tm_conn_closed
  end

(* A write to a vanished client (EPIPE & friends) closes the connection;
   it must never take the server down. *)
let write_line c s =
  if c.alive then begin
    let line = s ^ "\n" in
    let n = String.length line in
    try
      let sent = ref 0 in
      while !sent < n do
        sent := !sent + Unix.write_substring c.fd line !sent (n - !sent)
      done
    with Unix.Unix_error _ -> close_conn c
  end

let respond_ok c s =
  T.incr tm_resp_ok;
  write_line c s

let respond_err c s =
  T.incr tm_resp_err;
  write_line c s

(* ------------------------------------------------------------------ *)
(* Plan resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Served plans, addressable by plan id.  An id names the questions it
   was registered for — (formula, params, budget) over one interned
   database, so every request against one schema shares one physical
   database and hence one memoized execution state — each with the plan
   it last compiled to and the database version it was compiled at.  The
   rewriter reads the database's bounding boxes, so after an update the
   same question can compile to a different plan: a by-id request replays
   the kept plan while the version is unchanged and recompiles the
   question through [Planner.compile] otherwise.  Two questions can share
   an id only because they rewrote alike under the boxes of the time; if
   an update makes them compile apart, the id no longer names one answer
   and a by-id request is refused with [ambiguous-plan]. *)
type question = {
  f : Ast.formula;
  params : Cqa_logic.Var.t array;
  qbudget : float;
  qdb : Db.t;
}

type registered = {
  q : question;
  mutable plan : Plan.t;
  mutable version : int;  (* [Db.version q.qdb] when [plan] was compiled *)
}

type registry = {
  plans : (int, registered list) Hashtbl.t;
  dbs : (string, Db.t) Hashtbl.t;  (* schema spec -> interned empty db *)
  empty_db : Db.t;
}

let make_registry () =
  {
    plans = Hashtbl.create 64;
    dbs = Hashtbl.create 8;
    empty_db = Db.empty Cqa_logic.Schema.empty;
  }

let db_for reg = function
  | None -> Ok reg.empty_db
  | Some spec -> (
      match Hashtbl.find_opt reg.dbs spec with
      | Some db -> Ok db
      | None -> (
          match P.schema_of_spec spec with
          | Error m -> Error ("bad-request", "schema: " ^ m)
          | Ok s ->
              let db = Db.empty s in
              Hashtbl.replace reg.dbs spec db;
              Ok db))

let same_question a b =
  a.qdb == b.qdb && a.qbudget = b.qbudget
  && Array.length a.params = Array.length b.params
  && Array.for_all2 Cqa_logic.Var.equal a.params b.params
  && Plan.equal_formula a.f b.f

(* Compile [q] against its database as it is now. *)
let compile q =
  match
    Cqa_analysis.Planner.compile ~db:q.qdb ~budget:q.qbudget ~params:q.params
      q.f
  with
  | exception Invalid_argument m -> Error ("bad-request", m)
  | p ->
      if Array.length (Plan.coords p) = 0 then
        Error
          ( "bad-request",
            "query has no free coordinates: VOL_I is 0-dimensional" )
      else Ok p

(* [compile], then register [q] under the resulting plan id (once per
   id). *)
let compile_registered reg q =
  let version = Db.version q.qdb in
  match compile q with
  | Error _ as e -> e
  | Ok p ->
      let id = Plan.id p in
      let entries = Option.value ~default:[] (Hashtbl.find_opt reg.plans id) in
      (match List.find_opt (fun r -> same_question r.q q) entries with
      | Some r ->
          r.plan <- p;
          r.version <- version
      | None ->
          Hashtbl.replace reg.plans id ({ q; plan = p; version } :: entries));
      Ok p

(* The plan a registered question stands for now. *)
let current reg r =
  if Db.version r.q.qdb = r.version then Ok r.plan
  else
    match compile_registered reg r.q with
    | Ok p as ok ->
        r.plan <- p;
        r.version <- Db.version r.q.qdb;
        ok
    | Error _ as e -> e

(* Only [plan] requests pass [~register:true]: a by-query [vol] compiles
   through the plan cache but leaves the registry alone, so the registry
   grows with the plans clients asked to address by id, not with every
   distinct query text. *)
let resolve ?(register = false) reg ~budget target =
  match target with
  | P.By_id id -> (
      match Hashtbl.find_opt reg.plans id with
      | None | Some [] ->
          Error ("unknown-plan", Printf.sprintf "no plan #%d registered" id)
      | Some (r :: rest) -> (
          match current reg r with
          | Error _ as e -> e
          | Ok p ->
              let agrees r' =
                r'.q.qdb == r.q.qdb
                && (match current reg r' with
                   | Ok p' -> Plan.id p' = Plan.id p
                   | Error _ -> false)
              in
              if List.for_all agrees rest then Ok (p, r.q.qdb)
              else
                Error
                  ( "ambiguous-plan",
                    Printf.sprintf
                      "plan #%d was registered for queries that an update \
                       has made compile differently; send the query text"
                      id )))
  | P.By_query { query; schema; params } -> (
      match db_for reg schema with
      | Error e -> Error e
      | Ok db -> (
          match Parser.formula_of_string query with
          | exception Parser.Parse_error m -> Error ("parse-error", "query: " ^ m)
          | f -> (
              match
                (if register then compile_registered reg else compile)
                  { f; params = P.vars_of_spec params; qbudget = budget; qdb = db }
              with
              | Ok p -> Ok (p, db)
              | Error _ as e -> e)))

let hint_excludes p =
  match Plan.hint p with
  | Some (Dispatch.Pointwise_poly | Dispatch.Sum_eval) -> true
  | Some Dispatch.Exact_semilinear | None -> false

let plan_fields p =
  let vars vs =
    "["
    ^ (Array.to_list vs
      |> List.map (fun v -> P.json_string (Cqa_logic.Var.name v))
      |> String.concat ",")
    ^ "]"
  in
  [
    ("plan", string_of_int (Plan.id p));
    ("shape_hash", string_of_int (Plan.shape_hash p));
    ("coords", vars (Plan.coords p));
    ("params", vars (Plan.params p));
    ( "hint",
      match Plan.hint p with
      | Some h -> P.json_string (Dispatch.to_string h)
      | None -> "null" );
    ("projected", P.json_float (Plan.projected p));
    ( "decision",
      P.json_string
        (match Plan.decision p with
        | Dispatch.Run_exact -> "run-exact"
        | Dispatch.Fallback_approx _ -> "fallback-approx") );
  ]

(* ------------------------------------------------------------------ *)
(* The request queue and batched execution                             *)
(* ------------------------------------------------------------------ *)

type exec_kind =
  | K_vol of Q.t array
  | K_vol_batch of Q.t array list
  | K_degrade of { eps : float; delta : float; seed : int; budget : float }

type job = {
  jconn : conn;
  jrid : string option;
  jplan : Plan.t;
  jdb : Db.t;
  jkind : exec_kind;
  arrival_ns : float;
}

let vol_fields p engine_field value =
  [ ("plan", string_of_int (Plan.id p)) ]
  @ engine_field
  @ [ ("vol", P.json_q value); ("vol_float", P.json_float (Q.to_float value)) ]

let respond_exec_error job (code, msg) =
  respond_err job.jconn (P.error ?rid:job.jrid ~op:"vol" ~code msg)

let exec_error = function
  | Volume_exact.Not_semilinear m -> ("not-semilinear", m)
  | Volume_exact.Unbounded -> ("unbounded", "the defined set has infinite measure")
  | e -> ("internal-error", Printexc.to_string e)

let binding_key qs =
  String.concat "," (Array.to_list (Array.map Q.to_string qs))

(* One flush group: all queued K_vol jobs for one (plan, database).
   Duplicate bindings are computed once; distinct bindings go to the pool
   as one Exec.volume_batch submission. *)
let exec_vol_group ~domains p db jobs =
  let tbl = Hashtbl.create 16 in
  let distinct = ref [] in
  List.iter
    (fun j ->
      match j.jkind with
      | K_vol qs ->
          let k = binding_key qs in
          if not (Hashtbl.mem tbl k) then begin
            Hashtbl.replace tbl k (List.length !distinct);
            distinct := qs :: !distinct
          end
      | _ -> assert false)
    jobs;
  let bindings = List.rev !distinct in
  let n_jobs = List.length jobs and n_distinct = List.length bindings in
  if n_jobs > 1 then begin
    T.add tm_batched n_jobs;
    T.add tm_coalesced (n_jobs - n_distinct)
  end;
  match Exec.volume_batch ~domains p db bindings with
  | exception e ->
      let err = exec_error e in
      List.iter (fun j -> respond_exec_error j err) jobs
  | values ->
      let values = Array.of_list values in
      List.iter
        (fun j ->
          match j.jkind with
          | K_vol qs ->
              let v = values.(Hashtbl.find tbl (binding_key qs)) in
              respond_ok j.jconn
                (P.ok ?rid:j.jrid ~op:"vol"
                   (vol_fields p [ ("engine", P.json_string "exact") ] v))
          | _ -> assert false)
        jobs

let exec_one ~domains job =
  let p = job.jplan and db = job.jdb in
  match job.jkind with
  | K_vol _ -> exec_vol_group ~domains p db [ job ]
  | K_vol_batch bindings -> (
      match Exec.volume_batch ~domains p db bindings with
      | exception e -> respond_exec_error job (exec_error e)
      | values ->
          let vols =
            "[" ^ String.concat "," (List.map P.json_q values) ^ "]"
          in
          respond_ok job.jconn
            (P.ok ?rid:job.jrid ~op:"vol_batch"
               [ ("plan", string_of_int (Plan.id p)); ("vols", vols) ]))
  | K_degrade { eps; delta; seed; budget } -> (
      T.incr tm_fallback;
      if T.enabled () then
        T.event "serve.fallback"
          (Printf.sprintf "plan #%d: degraded to sampler (budget %.3g)"
             (Plan.id p) budget);
      match Exec.volume_guarded ~domains ~budget ~eps ~delta ~seed p db with
      | exception e -> respond_exec_error job (exec_error e)
      | { Volume_exact.value; engine; _ } ->
          let engine_field =
            match engine with
            | Volume_exact.Exact_engine -> [ ("engine", P.json_string "exact") ]
            | Volume_exact.Approx_engine { sample_size } ->
                [
                  ("engine", P.json_string "approx");
                  ("sample_size", string_of_int sample_size);
                ]
          in
          respond_ok job.jconn
            (P.ok ?rid:job.jrid ~op:"vol" (vol_fields p engine_field value)))

(* Flush: group the queue by (plan, database) in arrival order, answer
   every job.  Same-plan K_vol jobs execute as one coalesced batch;
   vol_batch and degraded jobs run per job (their work is already batched
   or deliberately per-request). *)
let flush ~domains queue =
  let jobs = List.rev !queue in
  queue := [];
  let now = T.now_ns () in
  List.iter (fun j -> T.record_ns tm_queue_ns (now -. j.arrival_ns)) jobs;
  (* partition into per-(plan, db) vol groups, preserving arrival order *)
  let groups : (int * Db.t * job list ref) list ref = ref [] in
  let others = ref [] in
  List.iter
    (fun j ->
      match j.jkind with
      | K_vol _ -> (
          let id = Plan.id j.jplan in
          match
            List.find_opt (fun (gid, gdb, _) -> gid = id && gdb == j.jdb) !groups
          with
          | Some (_, _, r) -> r := j :: !r
          | None -> groups := !groups @ [ (id, j.jdb, ref [ j ]) ])
      | _ -> others := j :: !others)
    jobs;
  T.time tm_exec_ns (fun () ->
      List.iter
        (fun (_, db, r) ->
          let gjobs = List.rev !r in
          let p = (List.hd gjobs).jplan in
          List.iter (fun j -> j.jconn.queued <- j.jconn.queued - 1) gjobs;
          exec_vol_group ~domains p db gjobs)
        !groups;
      List.iter
        (fun j ->
          j.jconn.queued <- j.jconn.queued - 1;
          exec_one ~domains j)
        (List.rev !others))

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  reg : registry;
  mutable conns : conn list;
  queue : job list ref;  (* newest first; flush reverses *)
  mutable oldest_ns : float;  (* arrival of the oldest queued job *)
  mutable reqs : int;
  stop_now : bool Atomic.t;
}

let enqueue st job =
  if !(st.queue) = [] then st.oldest_ns <- job.arrival_ns;
  st.queue := job :: !(st.queue);
  job.jconn.queued <- job.jconn.queued + 1

let admit st conn rid ~op p db ~args_arity opts k_exact =
  let budget =
    match opts.P.budget with Some b -> b | None -> st.cfg.budget
  in
  let decision = Dispatch.decide ~budget (Plan.profile p) in
  let np = Array.length (Plan.params p) in
  if args_arity <> np then
    respond_err conn
      (P.error ?rid ~op ~code:"bad-args"
         (Printf.sprintf "plan #%d takes %d parameter value(s), got %d"
            (Plan.id p) np args_arity))
  else
    let excluded = hint_excludes p in
    match (excluded, decision) with
    | false, Dispatch.Run_exact -> k_exact ()
    | _ ->
        let code = if excluded then "not-exact" else "over-budget" in
        let projected = Plan.projected p in
        let admission =
          match opts.P.admission with
          | Some a -> a
          | None -> st.cfg.admission
        in
        let reject msg =
          T.incr tm_reject;
          respond_err conn (P.error ?rid ~op ~code msg)
        in
        if np > 0 then
          reject
            (Printf.sprintf
               "projected cost %.3g exceeds budget %.3g and parameterized \
                requests cannot degrade to the sampler"
               projected budget)
        else
          match admission with
          | P.Reject ->
              reject
                (if excluded then
                   "static hint excludes the exact engine (admission: reject)"
                 else
                   Printf.sprintf
                     "projected cost %.3g exceeds budget %.3g (admission: \
                      reject)"
                     projected budget)
          | P.Degrade ->
              let eps = Option.value opts.P.eps ~default:0.1 in
              let delta = Option.value opts.P.delta ~default:0.1 in
              let seed = Option.value opts.P.seed ~default:1 in
              let bad_args msg =
                respond_err conn (P.error ?rid ~op ~code:"bad-args" msg)
              in
              let in_unit x = x > 0. && x < 1. in
              if not (in_unit eps && in_unit delta) then
                bad_args
                  (Printf.sprintf "eps %g and delta %g must lie in (0, 1)" eps
                     delta)
              else
                let m = Volume_exact.sampler_size ~eps ~delta (Plan.coords p) in
                if m > P.max_sample_points then
                  bad_args
                    (Printf.sprintf
                       "eps %g and delta %g need %d sample points, above the \
                        ceiling of %d"
                       eps delta m P.max_sample_points)
                else
                  enqueue st
                    {
                      jconn = conn;
                      jrid = rid;
                      jplan = p;
                      jdb = db;
                      jkind = K_degrade { eps; delta; seed; budget };
                      arrival_ns = T.now_ns ();
                    }

(* ------------------------------------------------------------------ *)
(* Database updates                                                    *)
(* ------------------------------------------------------------------ *)

(* A region travels as a relation-free FO + LIN formula over the edited
   relation's canonical coordinates [x0 .. x(arity-1)]; it is evaluated
   against an empty database, so any [Rel] atom is rejected up front. *)
let region_of_formula ~arity text =
  match Parser.formula_of_string text with
  | exception Parser.Parse_error m -> Error ("parse-error", "region: " ^ m)
  | f -> (
      if Ast.relations f <> [] then
        Error
          ( "bad-request",
            "region must be a relation-free FO+LIN formula over x0, x1, ..." )
      else
        match
          Eval.eval_set
            (Db.empty Cqa_logic.Schema.empty)
            (Cqa_linear.Semilinear.default_vars arity)
            f
        with
        | s -> Ok s
        | exception Invalid_argument m -> Error ("bad-request", "region: " ^ m))

let delta_box_json = function
  | None -> "null"
  | Some bb ->
      "["
      ^ String.concat ","
          (Array.to_list bb
          |> List.map (fun (lo, hi) ->
                 "[" ^ P.json_q lo ^ "," ^ P.json_q hi ^ "]"))
      ^ "]"

let apply_update reg ~schema ~rel ~region ~inserted =
  match db_for reg (Some schema) with
  | Error e -> Error e
  | Ok db -> (
      match Cqa_logic.Schema.arity (Db.schema db) rel with
      | None ->
          Error
            ("bad-request", Printf.sprintf "unknown relation %S in schema" rel)
      | Some arity -> (
          match region_of_formula ~arity region with
          | Error e -> Error e
          | Ok r -> (
              let u = if inserted then Db.Insert (rel, r) else Db.Remove (rel, r) in
              match Db.apply_update db u with
              | exception Invalid_argument m -> Error ("bad-request", m)
              | ch ->
                  T.incr tm_update;
                  Ok
                    [
                      ("rel", P.json_string rel);
                      ("version", string_of_int ch.Db.version);
                      ("delta_box", delta_box_json ch.Db.delta_box);
                      ( "delta_empty",
                        if ch.Db.delta_empty then "true" else "false" );
                    ])))

let clear_engine_caches () =
  Plan.clear_cache ();
  Cqa_analysis.Planner.clear_memo ();
  Cqa_linear.Fourier_motzkin.clear_qe_cache ();
  Cqa_linear.Semilinear.clear_bbox_cache ();
  Cqa_linear.Simplex.clear_basis_cache ();
  Cqa_linear.Flatrow.clear_cache ()

let handle_request st conn line =
  T.incr tm_req;
  st.reqs <- st.reqs + 1;
  match P.parse line with
  | Error (code, msg) -> respond_err conn (P.error ~code msg)
  | Ok { rid; req } -> (
      match req with
      | P.Ping -> respond_ok conn (P.ok ?rid ~op:"ping" [])
      | P.Stats ->
          let telemetry =
            if T.enabled () then T.to_json (T.snapshot ()) else "null"
          in
          respond_ok conn
            (P.ok ?rid ~op:"stats"
               [
                 ( "serve",
                   Printf.sprintf "{\"conns\":%d,\"reqs\":%d,\"queued\":%d}"
                     (List.length st.conns) st.reqs (List.length !(st.queue))
                 );
                 ("plan_cache", plan_cache_json ());
                 ("telemetry_enabled", if T.enabled () then "true" else "false");
                 ("telemetry", telemetry);
               ])
      | P.Update { schema; rel; region; inserted } -> (
          (* serialize the write against in-flight work: everything queued
             before it executes against the pre-update database, so
             update-then-query sequences are linearizable *)
          if !(st.queue) <> [] then flush ~domains:st.cfg.domains st.queue;
          let op = if inserted then "insert" else "remove" in
          match apply_update st.reg ~schema ~rel ~region ~inserted with
          | Error (code, msg) -> respond_err conn (P.error ?rid ~op ~code msg)
          | Ok fields -> respond_ok conn (P.ok ?rid ~op fields))
      | P.Db_version { schema } -> (
          match db_for st.reg (Some schema) with
          | Error (code, msg) ->
              respond_err conn (P.error ?rid ~op:"db_version" ~code msg)
          | Ok db ->
              respond_ok conn
                (P.ok ?rid ~op:"db_version"
                   [ ("version", string_of_int (Db.version db)) ]))
      | P.Reset ->
          clear_engine_caches ();
          Hashtbl.reset st.reg.plans;
          respond_ok conn (P.ok ?rid ~op:"reset" [])
      | P.Shutdown ->
          respond_ok conn (P.ok ?rid ~op:"shutdown" []);
          Atomic.set st.stop_now true
      | P.Plan_req { target; budget } -> (
          let budget = Option.value budget ~default:st.cfg.budget in
          match resolve ~register:true st.reg ~budget target with
          | Error (code, msg) -> respond_err conn (P.error ?rid ~op:"plan" ~code msg)
          | Ok (p, _db) -> respond_ok conn (P.ok ?rid ~op:"plan" (plan_fields p)))
      | P.Vol { target; args; opts } -> (
          let budget = Option.value opts.P.budget ~default:st.cfg.budget in
          match resolve st.reg ~budget target with
          | Error (code, msg) -> respond_err conn (P.error ?rid ~op:"vol" ~code msg)
          | Ok (p, db) ->
              admit st conn rid ~op:"vol" p db ~args_arity:(Array.length args)
                opts (fun () ->
                  enqueue st
                    {
                      jconn = conn;
                      jrid = rid;
                      jplan = p;
                      jdb = db;
                      jkind = K_vol args;
                      arrival_ns = T.now_ns ();
                    }))
      | P.Vol_batch { target; bindings; opts } -> (
          let budget = Option.value opts.P.budget ~default:st.cfg.budget in
          match resolve st.reg ~budget target with
          | Error (code, msg) ->
              respond_err conn (P.error ?rid ~op:"vol_batch" ~code msg)
          | Ok (p, db) ->
              let np = Array.length (Plan.params p) in
              let arity =
                match
                  List.find_opt (fun qs -> Array.length qs <> np) bindings
                with
                | Some qs -> Array.length qs
                | None -> np
              in
              admit st conn rid ~op:"vol_batch" p db ~args_arity:arity opts
                (fun () ->
                  enqueue st
                    {
                      jconn = conn;
                      jrid = rid;
                      jplan = p;
                      jdb = db;
                      jkind = K_vol_batch bindings;
                      arrival_ns = T.now_ns ();
                    })))

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

(* The longest request line a connection may send, terminator excluded. *)
let max_line = 1 lsl 20

(* The first ['\n'] of [buf] in [i, n), or [n]. *)
let rec newline_index buf i n =
  if i >= n || Bytes.get buf i = '\n' then i else newline_index buf (i + 1) n

(* Read whatever is available and handle every complete line; a partial
   trailing line stays buffered.  Only the bytes just read are scanned
   for a terminator.  A line past [max_line] bytes, complete or not, gets
   one [line-too-long] error and closes the connection.  EOF (a clean
   disconnect, mid-request or not) closes the connection and drops the
   partial line — queued jobs from this connection still execute, their
   responses are discarded by [write_line] on the closed socket. *)
let handle_readable st read_buf conn =
  match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn conn
  | 0 -> close_conn conn
  | n ->
      let too_long () =
        Buffer.reset conn.buf;
        respond_err conn
          (P.error ~code:"line-too-long"
             (Printf.sprintf "request line longer than %d bytes" max_line));
        close_conn conn
      in
      let rec go start =
        let i = newline_index read_buf start n in
        if Buffer.length conn.buf + (i - start) > max_line then too_long ()
        else begin
          Buffer.add_subbytes conn.buf read_buf start (i - start);
          if i < n then begin
            let line = Buffer.contents conn.buf in
            Buffer.clear conn.buf;
            if String.trim line <> "" then handle_request st conn line;
            if conn.alive then go (i + 1)
          end
        end
      in
      go 0

let sockaddr_of = function
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_loopback)
      in
      Unix.ADDR_INET (ip, port)
  | Unix_path path -> Unix.ADDR_UNIX path

let listen_on addr =
  let sa = sockaddr_of addr in
  let dom = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  Unix.bind fd sa;
  Unix.listen fd 128;
  fd

let serve ?stop ?ready cfg =
  let stop_now =
    match stop with Some a -> a | None -> Atomic.make false
  in
  (* a client vanishing mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = listen_on cfg.addr in
  (match ready with Some a -> Atomic.set a true | None -> ());
  let st =
    {
      cfg;
      reg = make_registry ();
      conns = [];
      queue = ref [];
      oldest_ns = 0.;
      reqs = 0;
      stop_now;
    }
  in
  let read_buf = Bytes.create 65536 in
  let window_ns = cfg.window_us *. 1e3 in
  let accept_one () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error _ -> ()
    | fd, _peer ->
        if List.length st.conns >= cfg.max_clients then begin
          T.incr tm_conn_rejected;
          let busy =
            P.error ~code:"server-busy"
              (Printf.sprintf "server at max-clients (%d)" cfg.max_clients)
            ^ "\n"
          in
          (try
             ignore (Unix.write_substring fd busy 0 (String.length busy))
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          T.incr tm_conn_accepted;
          st.conns <-
            st.conns
            @ [ { fd; buf = Buffer.create 256; alive = true; queued = 0 } ]
        end
  in
  let flush_ready () =
    match !(st.queue) with
    | [] -> false
    | q ->
        let n = List.length q in
        n >= cfg.max_batch
        || (st.conns <> []
           && List.for_all (fun c -> (not c.alive) || c.queued > 0) st.conns)
        || T.now_ns () -. st.oldest_ns >= window_ns
  in
  while not (Atomic.get st.stop_now) do
    st.conns <- List.filter (fun c -> c.alive) st.conns;
    let fds = listen_fd :: List.map (fun c -> c.fd) st.conns in
    (* With nothing queued there is nothing to time out for: traffic,
       shutdown requests and signals (EINTR below) all wake the select
       themselves, so a long timeout is purely a stop-flag safety poll.
       Keeping the idle loop quiet matters beyond politeness: an idle
       server that wakes several times a second churns its stack roots,
       and a co-resident benchmark harness trying to stabilize the GC's
       live-word count (bechamel does, unconditionally, before every
       test) then fails nondeterministically. *)
    let timeout =
      if !(st.queue) = [] then 60.
      else
        Float.max 0.
          ((window_ns -. (T.now_ns () -. st.oldest_ns)) /. 1e9)
    in
    (match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem listen_fd readable then accept_one ();
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd readable then
              handle_readable st read_buf c)
          st.conns);
    if flush_ready () then flush ~domains:cfg.domains st.queue
  done;
  (* answer whatever is still queued before tearing the sockets down *)
  if !(st.queue) <> [] then flush ~domains:cfg.domains st.queue;
  List.iter close_conn st.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  match cfg.addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Embedded servers                                                    *)
(* ------------------------------------------------------------------ *)

type handle = {
  domain : unit Domain.t;
  haddr : addr;
  mutable stopped : bool;
}

let addr_of h = h.haddr

let start_background cfg =
  let ready = Atomic.make false in
  let domain = Domain.spawn (fun () -> serve ~ready cfg) in
  (* wait for the listener: the atomic flips after bind/listen *)
  let rec wait n =
    if Atomic.get ready then ()
    else if n > 5000 then failwith "Server.start_background: listener not ready"
    else begin
      Unix.sleepf 0.001;
      wait (n + 1)
    end
  in
  wait 0;
  { domain; haddr = cfg.addr; stopped = false }

let stop_background h =
  if not h.stopped then begin
    h.stopped <- true;
    (* minimal inline client: send shutdown, wait for the ack *)
    (try
       let sa = sockaddr_of h.haddr in
       let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect fd sa;
           let line = "{\"op\":\"shutdown\"}\n" in
           ignore (Unix.write_substring fd line 0 (String.length line));
           ignore (Unix.read fd (Bytes.create 64) 0 64))
     with Unix.Unix_error _ | Failure _ -> ());
    Domain.join h.domain
  end
