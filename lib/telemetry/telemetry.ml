(* Pipeline telemetry: monotonic counters, timers, nested spans and
   discrete events behind one global on/off switch.

   Disabled (the default) every probe is a single load-and-branch on
   [enabled_flag]: no allocation, no clock read, no lock.  Enabled, counters
   are lock-free atomics (probes fire from the domain-parallel sweeps and
   samplers), timers take a per-timer mutex only on the record path, and the
   registries themselves are guarded by [registry_lock].

   Counter values must not depend on domain scheduling: anything that can
   race (wall-clock durations, per-chunk timings) belongs in a timer, whose
   count/total are understood to be scheduling-dependent; see the
   determinism test in test/test_telemetry.ml.  The one deliberate exception
   is cache hit/miss splits: two domains can both miss the same cold key, so
   hit/miss counters are exact only for sequential runs and are named with a
   [.hit]/[.miss] suffix so callers can filter them. *)

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let now_ns () = Unix.gettimeofday () *. 1e9

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; cell : int Atomic.t }

type timer = {
  t_name : string;
  t_lock : Mutex.t;
  mutable t_count : int;
  mutable t_total_ns : float;
  mutable t_min_ns : float;
  mutable t_max_ns : float;
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let timers : (string, timer) Hashtbl.t = Hashtbl.create 64

(* events accumulate in reverse; [event_count] avoids List.length on diff *)
let events_rev : (string * string) list ref = ref []
let event_count = ref 0

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

let counter name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let timer name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt timers name with
      | Some t -> t
      | None ->
          let t =
            {
              t_name = name;
              t_lock = Mutex.create ();
              t_count = 0;
              t_total_ns = 0.;
              t_min_ns = infinity;
              t_max_ns = 0.;
            }
          in
          Hashtbl.add timers name t;
          t)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let incr c = if !enabled_flag then Atomic.incr c.cell

let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

let set_max c n =
  if !enabled_flag then begin
    let rec go () =
      let cur = Atomic.get c.cell in
      if n > cur && not (Atomic.compare_and_set c.cell cur n) then go ()
    in
    go ()
  end

let record_ns t ns =
  if !enabled_flag then
    with_lock t.t_lock (fun () ->
        t.t_count <- t.t_count + 1;
        t.t_total_ns <- t.t_total_ns +. ns;
        if ns < t.t_min_ns then t.t_min_ns <- ns;
        if ns > t.t_max_ns then t.t_max_ns <- ns)

let time t f =
  if !enabled_flag then begin
    let t0 = now_ns () in
    let r = f () in
    record_ns t (now_ns () -. t0);
    r
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Per-domain nesting depth; spans on different domains nest independently.
   The depth high-water mark of span [s] is the counter [span.depth:s]. *)
let span_depth : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let depth = Domain.DLS.get span_depth in
    Stdlib.incr depth;
    let d = !depth in
    set_max (counter ("span.depth:" ^ name)) d;
    let t = timer ("span:" ^ name) in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        record_ns t (now_ns () -. t0);
        Stdlib.decr depth)
      f
  end

let event name detail =
  if !enabled_flag then
    with_lock registry_lock (fun () ->
        events_rev := (name, detail) :: !events_rev;
        Stdlib.incr event_count)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type timer_stat = {
  count : int;
  total_ns : float;
  min_ns : float;
  max_ns : float;
}

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer_stat) list;
  events : (string * string) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  with_lock registry_lock (fun () ->
      let cs =
        Hashtbl.fold
          (fun name c acc -> (name, Atomic.get c.cell) :: acc)
          counters []
        |> List.sort by_name
      in
      let ts =
        Hashtbl.fold
          (fun name t acc ->
            let stat =
              with_lock t.t_lock (fun () ->
                  {
                    count = t.t_count;
                    total_ns = t.t_total_ns;
                    min_ns = (if t.t_count = 0 then 0. else t.t_min_ns);
                    max_ns = t.t_max_ns;
                  })
            in
            (name, stat) :: acc)
          timers []
        |> List.sort by_name
      in
      { counters = cs; timers = ts; events = List.rev !events_rev })

(* [after] may know names [before] does not (registered in between): a
   missing name counts as zero.  min/max are high-water marks since the last
   [reset], not differences, so they are carried over from [after]. *)
let diff ~before ~after =
  let base = before.counters in
  let find name = Option.value ~default:0 (List.assoc_opt name base) in
  let cs = List.map (fun (n, v) -> (n, v - find n)) after.counters in
  let tfind name =
    match List.assoc_opt name before.timers with
    | Some s -> (s.count, s.total_ns)
    | None -> (0, 0.)
  in
  let ts =
    List.map
      (fun (n, s) ->
        let c0, tot0 = tfind n in
        (n, { s with count = s.count - c0; total_ns = s.total_ns -. tot0 }))
      after.timers
  in
  let skip = List.length before.events in
  let evs =
    List.filteri (fun i _ -> i >= skip) after.events
  in
  { counters = cs; timers = ts; events = evs }

let reset () =
  with_lock registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter
        (fun _ t ->
          with_lock t.t_lock (fun () ->
              t.t_count <- 0;
              t.t_total_ns <- 0.;
              t.t_min_ns <- infinity;
              t.t_max_ns <- 0.))
        timers;
      events_rev := [];
      event_count := 0)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_json snap =
  let buf = Buffer.create 1024 in
  let sep first = if !first then first := false else Buffer.add_char buf ',' in
  Buffer.add_string buf "{\"counters\":{";
  let first = ref true in
  List.iter
    (fun (n, v) ->
      sep first;
      Tjson.add_quoted buf n;
      Buffer.add_string buf (Printf.sprintf ":%d" v))
    snap.counters;
  Buffer.add_string buf "},\"timers\":{";
  let first = ref true in
  List.iter
    (fun (n, s) ->
      sep first;
      Tjson.add_quoted buf n;
      Buffer.add_string buf
        (Printf.sprintf
           ":{\"count\":%d,\"total_ns\":%.1f,\"min_ns\":%.1f,\"max_ns\":%.1f}"
           s.count s.total_ns s.min_ns s.max_ns))
    snap.timers;
  Buffer.add_string buf "},\"events\":[";
  let first = ref true in
  List.iter
    (fun (n, d) ->
      sep first;
      Buffer.add_string buf "{\"name\":";
      Tjson.add_quoted buf n;
      Buffer.add_string buf ",\"detail\":";
      Tjson.add_quoted buf d;
      Buffer.add_char buf '}')
    snap.events;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp fmt snap =
  Format.fprintf fmt "@[<v>";
  if snap.counters <> [] then begin
    Format.fprintf fmt "counters:@,";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "  %-44s %d@," n v)
      snap.counters
  end;
  if snap.timers <> [] then begin
    Format.fprintf fmt "timers:@,";
    List.iter
      (fun (n, s) ->
        Format.fprintf fmt "  %-44s n=%-8d total=%.3fms@," n s.count
          (s.total_ns /. 1e6))
      snap.timers
  end;
  if snap.events <> [] then begin
    Format.fprintf fmt "events:@,";
    List.iter (fun (n, d) -> Format.fprintf fmt "  %s: %s@," n d) snap.events
  end;
  Format.fprintf fmt "@]"
