(* The benchmark driver: runs one named workload with a seed and prints
   one JSON result line (the last line of standard output), preceded by
   a metadata line.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
   separate traced run reports every per-layer metric (0 for layers the
   workload does not exercise). *)

open Common

let workloads =
  [
    ("adhoc_exact", Adhoc.run);
    ("serve_read", Serve.run);
    ("approx_sample", Approx.run);
  ]

let per_layer =
  [
    ("layer.parse_ms", "ms");
    ("layer.plan_ms", "ms");
    ("plan.miss_ratio", "ratio");
    ("layer.eval_ms", "ms");
    ("fm.sat_memo.hit_ratio", "ratio");
    ("fm.qe_memo.hit_ratio", "ratio");
    ("fm.filter.sure_ratio", "ratio");
    ("simplex.filter.sure_ratio", "ratio");
    ("layer.volume_ms", "ms");
    ("volume.breakpoints_per_op", "count");
    ("set.disjuncts_per_op", "count");
    ("serve.queue_ms", "ms");
    ("serve.exec_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.batch_size", "count");
    ("serve.coalesced_ratio", "ratio");
    ("protocol.parse_us", "us");
    ("exec.fast_ratio", "ratio");
    ("layer.sampler_ms", "ms");
    ("sampler.points_per_op", "count");
    ("sampler.us_per_point", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) r.problems;
  let meta =
    [
      ("workload", Cqa_serve.Protocol.json_string !workload);
      ("seed", string_of_int !seed);
      ("trace", if trace then "true" else "false");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Cqa_serve.Protocol.json_string Sys.ocaml_version);
      ( "flambda",
        Cqa_serve.Protocol.json_string
          (Option.value (Sys.getenv_opt "PERFBENCH_FLAMBDA") ~default:"unknown") );
      ("kernel", Cqa_serve.Protocol.json_string (Cqa_core.Dispatch.kernel_name ()));
      ("plan_cache_cap", string_of_int (Cqa_core.Plan.cache_capacity ()));
      ("domains", "1");
    ]
    @ r.meta
    @ [
        ( "problems",
          "["
          ^ String.concat "," (List.map Cqa_serve.Protocol.json_string r.problems)
          ^ "]" );
      ]
  in
  print_endline
    ("{\"meta\":{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) meta)
    ^ "}}");
  let wanted =
    if trace then per_layer
    else
      [
        ("setup_s", "s");
        ("ops_per_s", "1/s");
        ("lat_p50_ms", "ms");
        ("lat_tail_ms", "ms");
        ("rss_peak_mb", "MB");
      ]
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
          | Some (_, v, _) -> v
          | None -> 0.
        in
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
      wanted
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (r.problems = [] && r.failed = 0)
    r.attempted r.failed
    (String.concat "," metrics)
