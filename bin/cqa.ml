(* Command-line interface: experiment suite and small demos. *)

open Cqa_arith
open Cqa_logic
open Cqa_linear
open Cqa_vc
open Cqa_core
open Cqa_workload
open Cmdliner

(* ------------------------------------------------------------------ *)
(* --stats: per-run pipeline telemetry                                 *)
(* ------------------------------------------------------------------ *)

module Telemetry = Cqa_telemetry.Telemetry
module Tjson = Cqa_telemetry.Tjson

let stats_arg =
  Arg.(
    value
    & opt ~vopt:(Some `Human)
        (some (enum [ ("human", `Human); ("json", `Json) ]))
        None
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "Print pipeline telemetry (counters, timers, dispatch events) \
           gathered during the run: $(b,--stats) for a human summary, \
           $(b,--stats=json) for the stable JSON schema.")

(* Shared --domains flag for every command with ?domains plumbing.  The
   default leaves one hardware thread to the submitting domain; the
   persistent pool's adaptive cutoff still runs batches sequentially when
   the fan-out cannot pay for itself, so a large default costs nothing on
   small workloads. *)
let default_domains = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let domains_arg =
  let env =
    Cmd.Env.info "CQA_DOMAINS"
      ~doc:"Default for $(b,--domains) on every command that takes it."
  in
  Arg.(
    value
    & opt int default_domains
    & info [ "domains" ] ~docv:"K" ~env
        ~doc:
          (Printf.sprintf
             "OCaml domains for the parallel engines (exact-volume section \
              chunks, sampling chunks); results are reproducible per \
              domain count.  Defaults to the machine's recommended domain \
              count minus one (here %d); $(b,CQA_DOMAINS) overrides the \
              default."
             default_domains))

(* Flags several subcommands share, each defined once; where the meaning
   varies by command, the flag takes that command's doc. *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~doc:"Output format: $(b,human) or $(b,json).")

let budget_arg doc =
  Arg.(
    value
    & opt float Dispatch.default_budget
    & info [ "budget" ] ~docv:"X" ~doc)

let seed_arg doc = Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* The sampler's --eps and --delta: a probability strictly between 0 and
   1, rejected at parse time rather than by the sample-size bound. *)
let probability_arg name ~default doc =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0. && x < 1. -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a number in (0, 1)" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_float)) default
    & info [ name ] ~doc)

(* ------------------------------------------------------------------ *)
(* Query input: QUERY or --file, --schema, --params                    *)
(* ------------------------------------------------------------------ *)

module Protocol = Cqa_serve.Protocol

let schema_or_exit spec =
  match Protocol.schema_of_spec spec with
  | Ok s -> s
  | Error msg ->
      Format.eprintf "schema error: %s@." msg;
      exit 2

let formula_or_exit src =
  match Parser.formula_of_string src with
  | f -> f
  | exception Parser.Parse_error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2

(* The integration coordinates of a VOL_I query: its free variables. *)
let coords_or_exit f =
  let coords = Array.of_list (Var.Set.elements (Ast.free_vars f)) in
  if Array.length coords = 0 then begin
    Format.eprintf "query has no free variables: VOL_I is 0-dimensional@.";
    exit 2
  end;
  coords

(* A '#'-commented text file: the bodies of its comment lines (after the
   '#', trimmed) and its other non-blank lines, each in file order. *)
let read_commented path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go comments lines =
    match String.trim (input_line ic) with
    | exception End_of_file -> (List.rev comments, List.rev lines)
    | "" -> go comments lines
    | t when t.[0] = '#' ->
        let body = String.trim (String.sub t 1 (String.length t - 1)) in
        go (body :: comments) lines
    | t -> go comments (t :: lines)
  in
  go [] []

(* .cq files: a '# schema: U:1 P:2' comment declares relation arities, a
   '# params: u v' comment names the parameter slots of a parameterized
   query, and the other lines joined are the query text. *)
let read_cq path =
  let comments, lines = read_commented path in
  let header key =
    let k = key ^ ":" and n = String.length key + 1 in
    List.fold_left
      (fun found c ->
        if String.length c >= n && String.sub c 0 n = k then
          Some (String.trim (String.sub c n (String.length c - n)))
        else found)
      None comments
  in
  (String.concat " " lines, header "schema", header "params")

type query_input = {
  src : string;
  db : Db.t option;  (* empty, over --schema or the file's header *)
  params : Var.t array option;  (* --params or the file's header *)
}

(* The query input of analyze, vol and plan.  The term yields a resolver,
   so that analyze --corpus needs no query; [verb] names what a missing
   query stops.  Only commands given [params_doc] take --params. *)
let query_input ~verb ~query_doc ?params_doc () =
  let query =
    Arg.(
      value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:query_doc)
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Read the query from a .cq file: '#' lines are comments, a '# \
             schema: U:1 P:2' line declares relation arities and a '# \
             params: u v' line parameter slots.")
  in
  let schema =
    Arg.(
      value
      & opt (some string) None
      & info [ "schema" ] ~docv:"SPEC"
          ~doc:"Relation arities, e.g. 'U:1,P:2' (overrides the file header).")
  in
  let params =
    match params_doc with
    | None -> Term.const None
    | Some doc ->
        Arg.(
          value
          & opt (some string) None
          & info [ "params" ] ~docv:"VARS" ~doc)
  in
  let resolve query file schema params () =
    let src, file_schema, file_params =
      match (query, file) with
      | Some q, None -> (q, None, None)
      | None, Some path -> read_cq path
      | Some _, Some _ ->
          Format.eprintf "give either QUERY or --file, not both@.";
          exit 2
      | None, None ->
          Format.eprintf "nothing to %s: give QUERY or --file@." verb;
          exit 2
    in
    let either flag header = if flag <> None then flag else header in
    let db =
      Option.map
        (fun spec -> Db.empty (schema_or_exit spec))
        (either schema file_schema)
    in
    let params =
      Option.map
        (fun spec ->
          String.split_on_char ',' spec
          |> List.concat_map (String.split_on_char ' ')
          |> Protocol.vars_of_spec)
        (either params file_params)
    in
    { src; db; params }
  in
  Term.(const resolve $ query $ file $ schema $ params)

(* [plan_cache] additionally reports the plan cache's per-stripe
   accounting: spliced into the JSON object as a "plan_cache" member (the
   telemetry schema is a flat object, so appending a sibling member keeps
   it valid), appended as a table in human mode. *)
let with_stats ?(plan_cache = false) stats run =
  match stats with
  | None -> run ()
  | Some fmt ->
      Telemetry.enable ();
      Telemetry.reset ();
      let before = Telemetry.snapshot () in
      let finish () =
        let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
        match fmt with
        | `Human ->
            Format.printf "@.-- telemetry (kernel: %s) --@.%a@."
              (Dispatch.kernel_name ()) Telemetry.pp d;
            if plan_cache then
              Format.printf "@.-- plan cache --@.%a@." Plan.pp_cache_stats ()
        | `Json ->
            let j = Telemetry.to_json d in
            if plan_cache then
              print_endline
                (String.sub j 0 (String.length j - 1)
                ^ ",\"plan_cache\":"
                ^ Cqa_serve.Server.plan_cache_json ()
                ^ "}")
            else print_endline j
      in
      Fun.protect ~finally:finish run

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let id =
    Arg.(value & opt (some int) None & info [ "only" ] ~docv:"N"
           ~doc:"Run only experiment number $(docv) (1-12).")
  in
  let run = function
    | None -> Experiments.run_all ()
    | Some i -> Experiments.run_one i
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce every paper claim as a measured table (E1-E12).")
    Term.(const run $ id)

(* ------------------------------------------------------------------ *)
(* volume                                                              *)
(* ------------------------------------------------------------------ *)

let volume_cmd =
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~doc:"Dimension.") in
  let disjuncts =
    Arg.(value & opt int 2 & info [ "disjuncts" ] ~doc:"DNF disjunct count.")
  in
  let run dim disjuncts seed domains stats =
    with_stats stats @@ fun () ->
    let prng = Prng.create seed in
    let s = Generators.semilinear prng ~dim ~disjuncts in
    Format.printf "set:@.%a@." Semilinear.pp s;
    let sweep = Volume_exact.volume_sweep ~domains s in
    let ie = Volume_exact.volume_incl_excl ~domains s in
    Format.printf "volume (Theorem 3 sweep):      %a@." Q.pp sweep;
    Format.printf "volume (inclusion-exclusion):  %a@." Q.pp ie;
    Format.printf "volume (float):                %g@." (Q.to_float sweep)
  in
  Cmd.v
    (Cmd.info "volume"
       ~doc:"Exact volume of a random semi-linear database, two ways.")
    Term.(
      const run $ dim $ disjuncts $ seed_arg "Random seed." $ domains_arg
      $ stats_arg)

(* ------------------------------------------------------------------ *)
(* approx                                                              *)
(* ------------------------------------------------------------------ *)

let approx_cmd =
  let run eps delta seed domains stats =
    with_stats stats @@ fun () ->
    let prng = Prng.create seed in
    let disk = Generators.random_disk prng in
    let sample_size = Bounds.blumer_sample_size ~eps ~delta ~vc_dim:3 in
    let estimate =
      Approx_volume.estimate_random ~domains ~prng
        ~dim:(Cqa_poly.Semialg.dim disk) ~n:sample_size (Cqa_poly.Semialg.mem disk)
    in
    Format.printf
      "random disk in I^2; eps = %g, delta = %g -> sample size M = %d@." eps
      delta sample_size;
    Format.printf "estimated VOL_I = %g (exact rational %a)@."
      (Q.to_float estimate) Q.pp estimate
  in
  Cmd.v
    (Cmd.info "approx"
       ~doc:"Theorem 4: sample-based volume approximation of a semi-algebraic set.")
    Term.(
      const run
      $ probability_arg "eps" ~default:0.05 "Accuracy."
      $ probability_arg "delta" ~default:0.1 "Failure probability."
      $ seed_arg "Random seed." $ domains_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* vcdim                                                               *)
(* ------------------------------------------------------------------ *)

let vcdim_cmd =
  let bits =
    Arg.(value & opt int 4 & info [ "bits" ] ~doc:"Bit width of the Prop. 5 instance.")
  in
  let run bits =
    let inst, rel = Paper_examples.prop5_instance ~bits in
    let ground = List.map (fun i -> [| Q.of_int i |]) (List.init bits Fun.id) in
    let params = List.init (1 lsl bits) (fun a -> Q.of_int a) in
    let d =
      Definable_family.empirical_vc_dim ~params ~ground ~mem:(fun a pt ->
          Instance.mem inst rel [| a; pt.(0) |])
    in
    Format.printf "|D| = %d, log2 |D| = %.2f, VCdim(F_phi(D)) = %d@."
      (Instance.size inst)
      (log (float_of_int (Instance.size inst)) /. log 2.)
      d
  in
  Cmd.v
    (Cmd.info "vcdim"
       ~doc:"Proposition 5: a definable family with VC dimension log |D|.")
    Term.(const run $ bits)

(* ------------------------------------------------------------------ *)
(* area                                                                *)
(* ------------------------------------------------------------------ *)

let area_cmd =
  let run seed stats =
    with_stats stats @@ fun () ->
    let prng = Prng.create seed in
    let rec poly () =
      match Generators.convex_polygon prng ~points:5 with
      | Some p -> p
      | None -> poly ()
    in
    let p = poly () in
    Format.printf "polygon vertices:";
    List.iter
      (fun v -> Format.printf " (%a, %a)" Q.pp v.(0) Q.pp v.(1))
      (Cqa_geom.Polygon.vertices p);
    Format.printf "@.";
    let s = Generators.polygon_to_semilinear p in
    let db = Db.of_list Paper_examples.polygon_schema [ ("P", Db.Semilin s) ] in
    let term = Compile.polygon_area_term ~rel:"P" in
    let area = Eval.eval_term db Var.Map.empty term in
    Format.printf "FO + POLY + SUM program: %a@." Q.pp area;
    Format.printf "shoelace ground truth:   %a@." Q.pp (Cqa_geom.Polygon.area p)
  in
  Cmd.v
    (Cmd.info "area"
       ~doc:"Section 5: polygon area computed by the FO + POLY + SUM program.")
    Term.(const run $ seed_arg "Random seed." $ stats_arg)

(* ------------------------------------------------------------------ *)
(* qe                                                                  *)
(* ------------------------------------------------------------------ *)

let qe_cmd =
  let formula =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMULA"
          ~doc:
            "FO + LIN formula, e.g. 'exists y . x < y /\\\\ y < 5'. Lowercase \
             identifiers are variables.")
  in
  let run src stats =
    with_stats stats @@ fun () ->
    match Parser.formula_of_string src with
    | exception Parser.Parse_error msg ->
        Format.eprintf "parse error: %s@." msg;
        exit 1
    | f -> (
        let db = Db.empty Schema.empty in
        match Eval.reduce_linear db Var.Map.empty f with
        | exception Eval.Unsupported msg ->
            Format.eprintf "not linear-reducible: %s@." msg;
            exit 1
        | lin ->
            let d = Cqa_linear.Fourier_motzkin.qe lin in
            Format.printf "quantifier-free DNF:@.%a@."
              Cqa_linear.Linformula.pp_dnf d)
  in
  Cmd.v
    (Cmd.info "qe"
       ~doc:"Quantifier elimination of an FO + LIN formula (Fourier-Motzkin).")
    Term.(const run $ formula $ stats_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let parse_target src =
  match Parser.formula_of_string src with
  | f -> Ok (Cqa_analysis.Analyzer.Formula f)
  | exception Parser.Parse_error e1 -> (
      match Parser.term_of_string src with
      | t -> Ok (Cqa_analysis.Analyzer.Term t)
      | exception Parser.Parse_error e2 -> Error (e1, e2))

let analyze_cmd =
  let open Cqa_analysis in
  let input =
    query_input ~verb:"analyze"
      ~query_doc:
        "Query text: an FO + POLY + SUM formula or term (same syntax as \
         $(b,qe), plus 'SUM { w | guard | END(y . body) } (x . gamma)')."
      ()
  in
  let corpus =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:"Analyze every built-in workload query instead of one query.")
  in
  let deny =
    Arg.(
      value & flag
      & info [ "deny-warnings" ] ~doc:"Exit nonzero on warnings too.")
  in
  let show_info =
    Arg.(
      value & flag
      & info [ "show-info" ]
          ~doc:"Include info-level diagnostics in human output.")
  in
  let endpoints =
    Arg.(
      value & opt int 8
      & info [ "endpoints" ] ~docv:"N"
          ~doc:"Assumed END endpoint-set size for the cost projection.")
  in
  let threshold =
    Arg.(
      value & opt float 1e6
      & info [ "threshold" ] ~docv:"X"
          ~doc:"Projected-blowup warning threshold.")
  in
  let explain_rewrites =
    Arg.(
      value & flag
      & info [ "explain-rewrites" ]
          ~doc:
            "Run the certified rewrite pass and print one diagnostic per \
             applied rule (code, AST path, before/after) plus the rewritten \
             normal form.")
  in
  let verify_rewrites =
    Arg.(
      value & flag
      & info [ "verify-rewrites" ]
          ~doc:
            "Re-check every applied rewrite with the $(b,equiv) decision \
             procedure; a refuted rule is an error and the exit status is \
             nonzero.  This is the $(b,make lint) mode.")
  in
  let run input corpus format deny show_info endpoints threshold
      explain_rewrites verify_rewrites =
    let options = { Analyzer.endpoints; threshold } in
    (* the rewriter works on formulas; a term target is checked through the
       formula [t = 0], which exercises exactly the same subterm rules *)
    let rewrite_target = function
      | Analyzer.Formula f -> f
      | Analyzer.Term t -> Ast.Cmp (Ast.Ceq, t, Ast.Const Q.zero)
    in
    let rewrite_one ?db target =
      if not (explain_rewrites || verify_rewrites) then true
      else begin
        let r =
          Rewrite.rewrite ?db ~verify:verify_rewrites ~trace:true
            (rewrite_target target)
        in
        let ds = Rewrite.diagnostics r in
        let shown =
          if explain_rewrites then ds
          else List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds
        in
        (match format with
        | `Human ->
            List.iter (Format.printf "%a@." Diagnostic.pp) shown;
            if explain_rewrites then
              Format.printf
                "rewrite: %d rule(s) fired in %d pass(es); atoms %d -> %d@.rewritten: %a@."
                r.Rewrite.fired r.Rewrite.passes r.Rewrite.atoms_before
                r.Rewrite.atoms_after Ast.pp r.Rewrite.rewritten
        | `Json ->
            Printf.printf
              "{\"rewritten\":%s,\"fired\":%d,\"passes\":%d,\"atoms_before\":%d,\"atoms_after\":%d,\"refuted\":%d,\"diagnostics\":%s}\n"
              (Tjson.quote
                 (Format.asprintf "%a" Ast.pp r.Rewrite.rewritten))
              r.Rewrite.fired r.Rewrite.passes r.Rewrite.atoms_before
              r.Rewrite.atoms_after
              (List.length r.Rewrite.refuted)
              (Diagnostic.list_to_json shown));
        r.Rewrite.refuted = []
      end
    in
    let analyze_one ?db name target =
      let r = Analyzer.analyze ?db ~options target in
      (match format with
      | `Human ->
          if name <> "" then Format.printf "== %s ==@." name;
          Format.printf "%a@." (fun fmt -> Analyzer.pp_result ~show_info fmt) r
      | `Json -> print_endline (Analyzer.result_to_json r));
      let rewrites_ok = rewrite_one ?db target in
      Analyzer.ok ~deny_warnings:deny r && rewrites_ok
    in
    if corpus then (
      let all_ok =
        List.fold_left
          (fun acc (name, tgt, db) ->
            let target =
              match tgt with
              | `F f -> Analyzer.Formula f
              | `T t -> Analyzer.Term t
            in
            analyze_one ?db name target && acc)
          true
          (Paper_examples.analysis_corpus ())
      in
      if not all_ok then exit 1)
    else
      let { src; db; _ } = input () in
      match parse_target src with
      | Error (e1, e2) ->
          Format.eprintf "parse error (as formula): %s@." e1;
          Format.eprintf "parse error (as term):    %s@." e2;
          exit 2
      | Ok target -> if not (analyze_one ?db "" target) then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis: fragment classification, scope and \
          range-restriction diagnostics, QE cost projection, dispatch hint.")
    Term.(
      const run $ input $ corpus $ format_arg $ deny $ show_info $ endpoints
      $ threshold $ explain_rewrites $ verify_rewrites)

(* ------------------------------------------------------------------ *)
(* equiv: semantic equivalence of two queries                          *)
(* ------------------------------------------------------------------ *)

let equiv_cmd =
  let open Cqa_analysis in
  let q1 =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY1" ~doc:"First query (an FO + POLY + SUM formula).")
  in
  let q2 =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY2" ~doc:"Second query.")
  in
  let budget =
    budget_arg
      "Cost cap on the symmetric-difference elimination; past it the \
       verdict is $(b,unknown) rather than a potentially exponential \
       computation."
  in
  let run q1 q2 budget format =
    let parse which s =
      match Parser.formula_of_string s with
      | f -> f
      | exception Parser.Parse_error e ->
          Format.eprintf "parse error in %s: %s@." which e;
          exit 2
    in
    let f1 = parse "QUERY1" q1 and f2 = parse "QUERY2" q2 in
    let v = Equiv.check ~budget f1 f2 in
    (match format with
    | `Human -> Format.printf "%a@." Equiv.pp_verdict v
    | `Json ->
        print_endline
          (match v with
          | Equiv.Equal -> {|{"verdict":"equal"}|}
          | Equiv.Distinct w ->
              let pt =
                Var.Map.bindings w
                |> List.map (fun (x, c) ->
                       Printf.sprintf "%s:\"%s\""
                         (Tjson.quote (Var.name x))
                         (Q.to_string c))
                |> String.concat ","
              in
              Printf.sprintf {|{"verdict":"distinct","witness":{%s}}|} pt
          | Equiv.Unknown r ->
              Printf.sprintf {|{"verdict":"unknown","reason":%s}|}
                (Tjson.quote r)));
    match v with
    | Equiv.Equal -> ()
    | Equiv.Distinct _ -> exit 1
    | Equiv.Unknown _ -> exit 3
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Decide whether two FO + LIN queries define the same set (exit 0: \
          equal, 1: distinct with a witness point, 3: unknown).")
    Term.(const run $ q1 $ q2 $ budget $ format_arg)

(* ------------------------------------------------------------------ *)
(* vol: cost-guarded query volume                                      *)
(* ------------------------------------------------------------------ *)

let vol_cmd =
  let input =
    query_input ~verb:"evaluate"
      ~query_doc:
        "FO + POLY + SUM formula whose free variables span the integration \
         coordinates (same syntax as $(b,analyze))."
      ()
  in
  let budget =
    budget_arg
      "Projected-cost budget: when the worst-case quantifier-elimination \
       projection (Section 3 model, m -> m^2/4 per eliminated variable) \
       exceeds $(docv), evaluation degrades to the Theorem 4 sampling \
       estimator instead of running the exact engine.  Default: unguarded."
  in
  let run input budget domains eps delta seed stats =
    with_stats ~plan_cache:true stats @@ fun () ->
    let { src; db; _ } = input () in
    let db = Option.value db ~default:(Db.empty Schema.empty) in
    let f = formula_or_exit src in
    let coords = coords_or_exit f in
    (* compile (or fetch) the plan: on a cache miss the analyzer runs
       once; repeated invocations of the same shape in one process go
       straight to the compiled plan *)
    let plan = Cqa_analysis.Planner.compile ~db ~budget ~coords f in
    match Exec.volume_guarded ~domains ~budget ~eps ~delta ~seed plan db with
    | exception Volume_exact.Not_semilinear msg ->
        Format.eprintf "not evaluable exactly: %s@." msg;
        exit 1
    | { Volume_exact.value; engine; projected; budget } ->
        Format.printf "free variables:";
        Array.iter (fun v -> Format.printf " %a" Var.pp v) coords;
        Format.printf "@.";
        (match Plan.hint plan with
        | Some hint -> Format.printf "static hint: %a@." Dispatch.pp hint
        | None -> Format.printf "static hint: (runtime probe)@.");
        if budget = infinity then
          Format.printf "projected QE atoms: %.3g (unguarded)@." projected
        else
          Format.printf "projected QE atoms: %.3g (budget %.3g)@." projected
            budget;
        Format.printf "engine: %a@." Volume_exact.pp_engine engine;
        Format.printf "VOL_I = %a (~%g)@." Q.pp value (Q.to_float value)
  in
  Cmd.v
    (Cmd.info "vol"
       ~doc:
         "VOL_I of a query's section set, with cost-guarded dispatch: exact \
          (Theorem 3) within $(b,--budget), Theorem 4 sampling beyond it.")
    Term.(
      const run $ input $ budget $ domains_arg
      $ probability_arg "eps" ~default:0.1 "Fallback accuracy."
      $ probability_arg "delta" ~default:0.1 "Fallback failure probability."
      $ seed_arg "Fallback sampling seed." $ stats_arg)

(* ------------------------------------------------------------------ *)
(* plan: compile a query to its plan IR and print it                   *)
(* ------------------------------------------------------------------ *)

let plan_to_json plan =
  let vars vs =
    Array.to_list vs
    |> List.map (fun v -> Tjson.quote (Var.name v))
    |> String.concat ","
  in
  let profile = Plan.profile plan in
  let decision =
    match Plan.decision plan with
    | Dispatch.Run_exact -> "\"decision\":\"run-exact\""
    | Dispatch.Fallback_approx { projected; budget } ->
        Printf.sprintf
          "\"decision\":\"fallback-approx\",\"decision_projected\":%.17g,\
           \"decision_budget\":%.17g"
          projected budget
  in
  Printf.sprintf
    "{\"id\":%d,\"shape_hash\":%d,\"coords\":[%s],\"params\":[%s],\
     \"hint\":%s,\"atoms\":%d,\"quantifiers\":%d,\"sums\":%d,\
     \"tuple_width\":%d,\"projected_qe_atoms\":%.17g,%s,\"compile_ns\":%.0f,\
     \"normal\":%s}"
    (Plan.id plan) (Plan.shape_hash plan)
    (vars (Plan.coords plan))
    (vars (Plan.params plan))
    (match Plan.hint plan with
    | Some h -> Printf.sprintf "\"%s\"" (Dispatch.to_string h)
    | None -> "null")
    profile.Dispatch.atoms profile.Dispatch.quantifiers
    profile.Dispatch.sum_count profile.Dispatch.tuple_width
    (Plan.projected plan) decision (Plan.compile_ns plan)
    (Tjson.quote (Format.asprintf "%a" Ast.pp (Plan.normal plan)))

let plan_cmd =
  let input =
    query_input ~verb:"compile"
      ~query_doc:"FO + POLY + SUM formula to compile (same syntax as $(b,vol))."
      ~params_doc:
        "Free variables to treat as parameter slots, e.g. 'u v' (overrides \
         the file header).  The remaining free variables are the plan's \
         coordinates."
      ()
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Also print the source query and its alpha-normal form (the \
             cache key's formula part).")
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:
            "Print the plan cache's per-stripe accounting (size, hits, \
             misses, evictions, lock contention).")
  in
  let run input budget format explain cache_stats stats =
    with_stats stats @@ fun () ->
    let { src; db; params } = input () in
    let f = formula_or_exit src in
    match Cqa_analysis.Planner.compile ?db ~budget ?params f with
    | exception Invalid_argument msg ->
        Format.eprintf "plan error: %s@." msg;
        exit 2
    | plan ->
        (match format with
        | `Json -> print_endline (plan_to_json plan)
        | `Human ->
            Format.printf "%a@." Plan.pp plan;
            if explain then begin
              Format.printf "source: %a@." Ast.pp (Plan.source plan);
              Format.printf "normal: %a@." Ast.pp (Plan.normal plan)
            end);
        if cache_stats then Format.printf "%a@." Plan.pp_cache_stats ()
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Compile a query to its plan IR (alpha-normal form, cost profile, \
          engine decision) and print it; repeated shapes in one process hit \
          the striped plan cache (512 plans).")
    Term.(
      const run $ input
      $ budget_arg "Projected-cost budget the engine decision is made against."
      $ format_arg $ explain $ cache_stats $ stats_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the concurrent query service                        *)
(* ------------------------------------------------------------------ *)

module Server = Cqa_serve.Server
module Client = Cqa_serve.Client

(* ------------------------------------------------------------------ *)
(* update: incremental aggregate maintenance under database updates    *)
(* ------------------------------------------------------------------ *)

let update_cmd =
  let schema =
    Arg.(
      required
      & opt (some string) None
      & info [ "schema" ] ~docv:"SPEC"
          ~doc:"Relation arities, e.g. 'R:3' (required: updates edit relations).")
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "query" ] ~docv:"QUERY"
          ~doc:
            "FO + LIN formula whose $(b,VOL_I) is maintained across the \
             update sequence (free variables are the coordinates).")
  in
  let ops =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"OP"
          ~doc:
            "Update, e.g. 'insert R x0 >= 0 and x0 <= 1/2': a verb \
             ($(b,insert) or $(b,remove)), a relation name, and a \
             relation-free FO + LIN region over the relation's canonical \
             coordinates x0, x1, ...")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Read updates from a script, one OP per line ('#' comments).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After every update, recompute the volume cold on the updated \
             database and fail (exit 1) unless the incremental answer is \
             identical.")
  in
  let parse_op line =
    match
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    with
    | verb :: rel :: (_ :: _ as rest) when verb = "insert" || verb = "remove"
      ->
        Ok (verb = "insert", rel, String.concat " " rest)
    | _ -> Error "expected: insert|remove REL FORMULA"
  in
  let run schema query ops file domains check stats =
    with_stats ~plan_cache:true stats @@ fun () ->
    let sch = schema_or_exit schema in
    let db = Db.empty sch in
    let f = formula_or_exit query in
    let coords = coords_or_exit f in
    let ops =
      ops @ match file with None -> [] | Some path -> snd (read_commented path)
    in
    let failed = ref false in
    let report label =
      (* compiled per report: the rewriter reads the relations' current
         bounding boxes, and the planner's version-keyed memo hands back
         the plan whose execution state the updates maintain *)
      let plan = Cqa_analysis.Planner.compile ~db ~budget:infinity ~coords f in
      match Exec.volume_clamped ~domains plan db with
      | exception Volume_exact.Not_semilinear msg ->
          Format.eprintf "not evaluable exactly: %s@." msg;
          exit 1
      | v ->
          Format.printf "%s: VOL_I = %a (~%g)@." label Q.pp v (Q.to_float v);
          if check then begin
            let cold =
              Volume_exact.volume_clamped (Eval.eval_set db coords f)
            in
            if Q.equal v cold then Format.printf "  check: cold recompute agrees@."
            else begin
              failed := true;
              Format.printf "  check: MISMATCH, cold recompute = %a (~%g)@."
                Q.pp cold (Q.to_float cold)
            end
          end
    in
    report "initial";
    List.iteri
      (fun i op ->
        match parse_op op with
        | Error msg ->
            Format.eprintf "update %d: %s@." (i + 1) msg;
            exit 2
        | Ok (inserted, rel, region) -> (
            let arity =
              match Schema.arity sch rel with
              | Some a -> a
              | None ->
                  Format.eprintf "update %d: unknown relation %S@." (i + 1) rel;
                  exit 2
            in
            let r =
              match Parser.formula_of_string region with
              | exception Parser.Parse_error msg ->
                  Format.eprintf "update %d: parse error: %s@." (i + 1) msg;
                  exit 2
              | rf ->
                  if Ast.relations rf <> [] then begin
                    Format.eprintf
                      "update %d: region must be relation-free@." (i + 1);
                    exit 2
                  end;
                  (match
                     Eval.eval_set (Db.empty Schema.empty)
                       (Semilinear.default_vars arity) rf
                   with
                  | s -> s
                  | exception Invalid_argument msg ->
                      Format.eprintf "update %d: region: %s@." (i + 1) msg;
                      exit 2)
            in
            let u = if inserted then Db.Insert (rel, r) else Db.Remove (rel, r) in
            match Db.apply_update db u with
            | exception Invalid_argument msg ->
                Format.eprintf "update %d: %s@." (i + 1) msg;
                exit 2
            | ch ->
                Format.printf "update %d: %s %s -> version %d%s@." (i + 1)
                  (if inserted then "insert" else "remove")
                  rel ch.Db.version
                  (match ch.Db.delta_box with
                  | _ when ch.Db.delta_empty -> " (empty region: no-op)"
                  | None -> " (unbounded delta)"
                  | Some bb ->
                      ", delta box "
                      ^ String.concat " x "
                          (Array.to_list bb
                          |> List.map (fun (lo, hi) ->
                                 Format.asprintf "[%a, %a]" Q.pp lo Q.pp hi)));
                report (Printf.sprintf "after %d" (i + 1))))
      ops;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Maintain a query's VOL_I incrementally across database updates: \
          apply insert/remove region edits, re-answering after each one \
          from the delta-refreshed plan state ($(b,--check) verifies each \
          answer against a cold recompute).")
    Term.(
      const run $ schema $ query $ ops $ file $ domains_arg $ check $ stats_arg)

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) TCP 127.0.0.1:$(docv).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) the Unix-domain socket $(docv).")

let addr_of_flags port socket =
  match (port, socket) with
  | Some p, None -> Server.Tcp ("127.0.0.1", p)
  | None, Some path -> Server.Unix_path path
  | Some _, Some _ ->
      Format.eprintf "give either --port or --socket, not both@.";
      exit 2
  | None, None ->
      Format.eprintf "give --port or --socket@.";
      exit 2

let serve_cmd =
  let budget =
    budget_arg
      "Default admission budget: requests whose plan projects over $(docv) \
       QE atoms are rejected or degraded per $(b,--admission).  Default: \
       unguarded."
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Turn connections away (with a server-busy error) beyond \
                $(docv) concurrent clients.")
  in
  let window_us =
    Arg.(
      value & opt float 500.
      & info [ "window-us" ] ~docv:"US"
          ~doc:
            "Micro-batching window in microseconds: a queued volume \
             request waits at most this long to be coalesced with \
             same-plan requests (a lone client is flushed immediately).")
  in
  let max_batch =
    Arg.(
      value & opt int 256
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Flush the request queue at $(docv) pending requests even \
                within the window.")
  in
  let admission =
    Arg.(
      value
      & opt (enum [ ("degrade", Cqa_serve.Protocol.Degrade);
                    ("reject", Cqa_serve.Protocol.Reject) ])
          Cqa_serve.Protocol.Degrade
      & info [ "admission" ] ~docv:"MODE"
          ~doc:
            "What to do with an over-budget request: $(b,degrade) to the \
             Theorem 4 sampler, or $(b,reject) with a structured error.")
  in
  let run port socket domains budget max_clients window_us max_batch admission
      stats =
    with_stats ~plan_cache:true stats @@ fun () ->
    let addr = addr_of_flags port socket in
    let cfg =
      {
        Server.addr;
        domains;
        budget;
        max_clients;
        window_us;
        max_batch;
        admission;
      }
    in
    let stop = Atomic.make false in
    let flip _ = Atomic.set stop true in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle flip)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle flip)
     with Invalid_argument _ -> ());
    (match addr with
    | Server.Tcp (h, p) -> Format.eprintf "cqa serve: listening on %s:%d@." h p
    | Server.Unix_path path ->
        Format.eprintf "cqa serve: listening on %s@." path);
    Server.serve ~stop cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Concurrent query service: newline-delimited JSON over TCP or a \
          Unix socket, with per-request admission control and micro-batched \
          execution through the compiled-plan cache.  Stops on a \
          $(b,shutdown) request, SIGINT or SIGTERM.")
    Term.(
      const run $ port_arg $ socket_arg $ domains_arg $ budget $ max_clients
      $ window_us $ max_batch $ admission $ stats_arg)

let client_cmd =
  let requests =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request lines (JSON objects) to send, one round trip each; \
             with none, request lines are read from stdin.")
  in
  let wait =
    Arg.(
      value & opt int 0
      & info [ "wait" ] ~docv:"MS"
          ~doc:
            "Retry the initial connection (and a ping) for up to $(docv) \
             milliseconds before giving up — for scripts racing a server \
             start.")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Closed-loop throughput mode: drive $(b,--conns) lockstep \
             connections for $(b,--cycles) rounds, each sending the (one) \
             REQUEST line, and report wall-clock requests/second instead \
             of response bodies.")
  in
  let conns =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"K" ~doc:"Bench mode: concurrent connections.")
  in
  let cycles =
    Arg.(
      value & opt int 100
      & info [ "cycles" ] ~docv:"N"
          ~doc:"Bench mode: lockstep rounds per connection.")
  in
  let connect_retry addr wait_ms =
    let deadline = Unix.gettimeofday () +. (float_of_int wait_ms /. 1e3) in
    let rec go () =
      match Client.connect addr with
      | c -> c
      | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          go ()
    in
    go ()
  in
  let run port socket requests wait bench conns cycles =
    let addr = addr_of_flags port socket in
    if bench then begin
      let line =
        match requests with
        | [ l ] -> l
        | _ ->
            Format.eprintf "--bench takes exactly one REQUEST line@.";
            exit 2
      in
      let cs =
        Array.init conns (fun _ -> connect_retry addr wait)
      in
      let t0 = Unix.gettimeofday () in
      let out = Client.closed_loop ~conns:cs ~cycles (fun ~cycle:_ ~conn:_ -> line) in
      let dt = Unix.gettimeofday () -. t0 in
      Array.iter Client.close cs;
      let n = Array.length out in
      let failed =
        Array.fold_left
          (fun acc r ->
            if String.length r >= 11 && String.sub r 0 11 = {|{"ok":false|}
            then acc + 1
            else acc)
          0 out
      in
      Format.printf "requests: %d (conns %d x cycles %d), errors: %d@." n
        conns cycles failed;
      Format.printf "elapsed: %.3f s, throughput: %.0f req/s@." dt
        (float_of_int n /. dt);
      if failed > 0 then exit 1
    end
    else begin
      let c = connect_retry addr wait in
      let ok = ref true in
      let round_trip line =
        let resp = Client.request c line in
        print_endline resp;
        if String.length resp >= 11 && String.sub resp 0 11 = {|{"ok":false|}
        then ok := false
      in
      (match requests with
      | [] -> (
          try
            while true do
              let line = input_line stdin in
              if String.trim line <> "" then round_trip line
            done
          with End_of_file -> ())
      | rs -> List.iter round_trip rs);
      Client.close c;
      if not !ok then exit 1
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send wire-protocol requests to a running $(b,cqa serve) and print \
          the responses; $(b,--bench) turns it into a closed-loop \
          throughput driver.")
    Term.(
      const run $ port_arg $ socket_arg $ requests $ wait $ bench $ conns
      $ cycles)

let main =
  Cmd.group
    (Cmd.info "cqa" ~version:"1.0"
       ~doc:"Exact and approximate aggregation in constraint query languages.")
    [
      experiments_cmd; volume_cmd; approx_cmd; vcdim_cmd; area_cmd; qe_cmd;
      analyze_cmd; equiv_cmd; vol_cmd; plan_cmd; update_cmd; serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval main)
