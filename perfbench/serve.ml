(* serve_read: an in-process [Server.start_background] server (default
   config, Unix socket) driven by a closed loop over two connections
   multiplexed from the main domain -- each connection sends its next
   request as soon as its reply arrives.

   Set-up loads the database with [insert] verbs and registers three
   plans by id: a one-parameter Lemma 5 fast path, a two-parameter
   per-binding sweep and a one-parameter join.  Bindings are fresh seeded
   rationals, so the server's per-binding work is real every time. *)

open Cqa_arith
open Cqa_core
open Common
module Server = Cqa_serve.Server
module P = Cqa_serve.Protocol
module Tj = Cqa_telemetry.Tjson

let pieces = 5
let conns = 2
let warmup = 300
let setup_reps = 9

(* Requests per second of --seconds on the reference machine. *)
let ops_per_second = 1600

(* Traced runs alternate traced and untraced blocks of this many
   requests, a whole number of read cycles. *)
let block_ops = 198

(* The untraced tail is the median over this many equal segments of the
   run of each segment's highest order statistic with ten samples above
   it: one stall burst then moves one segment, not the figure. *)
let tail_segments = 10

type plan_spec = { query : string; params : string list; bind : Rng.t -> Q.t array }

let plans =
  let t lo hi rng = [| rat rng ~den:65536 ~lo ~hi |] in
  [|
    { query = "R(x, y) /\\ x + y <= t /\\ t >= 0 /\\ t <= 2"; params = [ "t" ]; bind = t 0 2 };
    {
      query = "S(x, y) /\\ u <= x /\\ y <= v";
      params = [ "u"; "v" ];
      bind =
        (fun rng ->
          [| rat rng ~den:65536 ~lo:0 ~hi:1 |> Q.mul Q.half;
             rat rng ~den:65536 ~lo:0 ~hi:1 |> Q.mul Q.half |> Q.add Q.half |]);
    };
    {
      query = "exists z . R(x, z) /\\ S(z, y) /\\ x - y <= t /\\ t >= -1 /\\ t <= 1";
      params = [ "t" ];
      bind = t (-1) 1;
    };
  |]

(* Reads cycle over the plans. *)
let reads rng n =
  Array.init n (fun i ->
      let j = i mod Array.length plans in
      (j, plans.(j).bind rng))

let json_strs l = "[" ^ String.concat "," (List.map P.json_string l) ^ "]"

let read_line ids (j, args) =
  Printf.sprintf {|{"op":"vol","plan":%d,"args":%s}|} ids.(j)
    (json_strs (Array.to_list (Array.map Q.to_string args)))

let insert_line (rel, region) =
  Printf.sprintf {|{"op":"insert","schema":%s,"rel":%s,"region":%s}|}
    (P.json_string schema_spec) (P.json_string rel) (P.json_string region)

(* ------------------------------------------------------------------ *)
(* A minimal multiplexing client                                       *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes after the last complete line *)
  mutable inflight : int;  (* op index awaiting its reply, or -1 *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; pending = Buffer.create 256; inflight = -1 }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

let chunk = Bytes.create 65536

(* Complete lines now readable on [c]. *)
let recv_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.pending chunk 0 n;
  let data = Buffer.contents c.pending in
  Buffer.clear c.pending;
  let rec go acc = function
    | [] -> List.rev acc
    | [ last ] ->
        Buffer.add_string c.pending last;
        List.rev acc
    | l :: rest -> go (l :: acc) rest
  in
  go [] (String.split_on_char '\n' data)

let request c line =
  send c line;
  let rec wait () = match recv_lines c with [] -> wait () | l :: _ -> l in
  wait ()

let ok_line l = String.length l >= 10 && String.sub l 0 10 = {|{"ok":true|}

let request_ok c line =
  let r = request c line in
  if not (ok_line r) then failwith ("set-up request failed: " ^ r);
  r

let json_field name line =
  match Result.to_option (Tj.parse line) with
  | Some j -> Tj.member name j
  | None -> None

(* Drive [lines] over the connections in a closed loop.  [solo i] ops go
   out with nothing else in flight; [on_solo i] runs just before such an
   op is sent.  Returns the reply lines and the per-op send and reply
   times. *)
let closed_loop cs lines ~solo ~on_solo =
  let n = Array.length lines in
  let replies = Array.make n "" and sent = Array.make n 0. and got = Array.make n 0. in
  let next = ref 0 and finished = ref 0 in
  let busy () = Array.exists (fun c -> c.inflight >= 0) cs in
  while !finished < n do
    Array.iter
      (fun c ->
        if c.inflight < 0 && !next < n then begin
          let i = !next in
          if (not (solo i)) || not (busy ()) then begin
            if solo i then on_solo i;
            c.inflight <- i;
            sent.(i) <- now ();
            send c lines.(i);
            incr next
          end
        end)
      cs;
    let fds =
      Array.to_list cs |> List.filter (fun c -> c.inflight >= 0) |> List.map (fun c -> c.fd)
    in
    let readable =
      match Unix.select fds [] [] (-1.) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let t = now () in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then
          List.iter
            (fun l ->
              let i = c.inflight in
              if i < 0 then failwith ("unsolicited reply: " ^ l);
              replies.(i) <- l;
              got.(i) <- t;
              c.inflight <- -1;
              incr finished)
            (recv_lines c))
      cs
  done;
  (replies, sent, got)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type server = { handle : Server.handle; cs : conn array; ids : int array }

let sock_counter = ref 0

let start ~inserts ~warm =
  incr sock_counter;
  let path = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !sock_counter in
  let handle = Server.start_background (Server.default_config (Server.Unix_path path)) in
  let cs = Array.init conns (fun _ -> connect path) in
  List.iter (fun ins -> ignore (request_ok cs.(0) (insert_line ins))) inserts;
  let ids =
    Array.map
      (fun s ->
        let r =
          request_ok cs.(0)
            (Printf.sprintf {|{"op":"plan","query":%s,"schema":%s,"params":%s}|}
               (P.json_string s.query) (P.json_string schema_spec) (json_strs s.params))
        in
        match Option.bind (json_field "plan" r) Tj.to_float with
        | Some id -> int_of_float id
        | None -> failwith ("plan registration failed: " ^ r))
      plans
  in
  let lines = Array.map (read_line ids) warm in
  let replies, _, _ = closed_loop cs lines ~solo:(fun _ -> false) ~on_solo:ignore in
  Array.iter (fun r -> if not (ok_line r) then failwith ("warm-up failed: " ^ r)) replies;
  { handle; cs; ids }

let stop s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.cs;
  Server.stop_background s.handle

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  let rng = Rng.create seed in
  let n = ops_per_second * seconds in
  let inserts = base_inserts ~pieces in
  let warm = reads rng warmup in
  let ops = reads rng n in
  let srv, setup_s =
    repeated_setup ~quiet:false ~reps:(if trace then 1 else setup_reps) ~teardown:stop (fun () ->
        start ~inserts ~warm)
  in
  let lines = Array.map (read_line srv.ids) ops in
  (* traced runs switch telemetry at block starts, with nothing in flight *)
  let traced i = trace && i / block_ops mod 2 = 0 in
  let solo i = trace && i mod block_ops = 0 in
  let on_solo i = if traced i then T.enable () else T.disable () in
  Gc.full_major ();
  let misses0 = plan_cache_misses () in
  let replies, sent, got = closed_loop srv.cs lines ~solo ~on_solo in
  let rtt = Array.mapi (fun i t -> t -. sent.(i)) got in
  let wall = Array.fold_left max 0. got -. sent.(0) in
  let compiles = plan_cache_misses () - misses0 in
  if trace then T.enable ();
  let stats = request srv.cs.(0) {|{"op":"stats"}|} in
  T.disable ();
  stop srv;
  (* answer checks, outside the timed phase: replay the reads on a fresh
     database loaded with the same inserts and compare every reply byte
     for byte with the in-process Exec answer *)
  clear_caches ();
  let db = load_db inserts in
  let pl =
    Array.map
      (fun s ->
        Cqa_analysis.Planner.compile ~db ~params:(Array.of_list s.params)
          (Parser.formula_of_string s.query))
      plans
  in
  let failed = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i (j, args) ->
      let expect = Printf.sprintf {|"vol":%s,|} (P.json_q (Exec.volume_at pl.(j) db args)) in
      let r = replies.(i) in
      let found =
        let lr = String.length r and le = String.length expect in
        let rec at k = k + le <= lr && (String.sub r k le = expect || at (k + 1)) in
        at 0
      in
      if not (ok_line r && found) then begin
        incr failed;
        if !failed <= 3 then problem "op %d: answer differs from in-process Exec: %s" i r
      end)
    ops;
  if compiles <> 0 then problem "%d plan compiles after set-up" compiles;
  let metrics, meta =
    if not trace then begin
      let seg = n / tail_segments in
      let tail =
        median
          (Array.init tail_segments (fun k -> quantile (Array.sub rtt (k * seg) seg) (1. -. (10.5 /. float_of_int seg))))
      in
      ( [
          ("setup_s", setup_s, "s");
          ("ops_per_s", float_of_int n /. wall, "1/s");
          ("lat_p50_ms", ms (median rtt), "ms");
          ("lat_tail_ms", ms tail, "ms");
          ("rss_peak_mb", rss_peak_mb (), "MB");
        ],
        [
          ("ops", string_of_int n);
          ( "lat_tail_percentile",
            Printf.sprintf "%.2f" (100. *. (1. -. (10. /. float_of_int seg))) );
          ("lat_tail_segments", string_of_int tail_segments);
        ] )
    end
    else begin
      let tel = Option.value (json_field "telemetry" stats) ~default:Tj.Null in
      let get path =
        List.fold_left (fun j k -> Option.value (Tj.member k j) ~default:Tj.Null) tel path
        |> Tj.to_float |> Option.value ~default:0.
      in
      let c name = get [ "counters"; name ] in
      let jobs = get [ "timers"; "serve.queue_ns"; "count" ] in
      let flushes = get [ "timers"; "serve.exec_ns"; "count" ] in
      let queue_ms = ratio (get [ "timers"; "serve.queue_ns"; "total_ns" ]) jobs /. 1e6 in
      let exec_ms = ratio (get [ "timers"; "serve.exec_ns"; "total_ns" ]) flushes /. 1e6 in
      let sel b = Array.of_list (List.filteri (fun i _ -> traced i = b) (Array.to_list rtt)) in
      let on = sel true and off = sel false in
      let _, parse_s = time (fun () -> Array.iter (fun l -> ignore (P.parse l)) lines) in
      ( [
          ("serve.queue_ms", queue_ms, "ms");
          ("serve.exec_ms", exec_ms, "ms");
          ("serve.wire_ms", ms (mean on) -. queue_ms -. exec_ms, "ms");
          ("serve.batch_size", ratio jobs flushes, "count");
          ("serve.coalesced_ratio", ratio (c "serve.coalesced") jobs, "ratio");
          ("protocol.parse_us", 1e6 *. parse_s /. float_of_int n, "us");
          ( "exec.fast_ratio",
            ratio (c "plan.param.fast") (c "plan.param.fast" +. c "plan.param.slow"),
            "ratio" );
          ("trace.overhead_ratio", ratio (mean off) (mean on), "ratio");
        ],
        [ ("ops", string_of_int n) ] )
    end
  in
  {
    attempted = n;
    failed = !failed;
    problems = List.rev !problems;
    metrics;
    meta = meta @ [ ("connections", string_of_int conns) ];
  }
