open Cqa_core

type target = Formula of Ast.formula | Term of Ast.term

type options = { endpoints : int; threshold : float }

let default_options = { endpoints = 8; threshold = 1e6 }

type result = {
  target : target;
  diagnostics : Diagnostic.t list;
  scope : Scope.report;
  classification : Fragment.classification;
  hint : Dispatch.hint;
  cost : Cost.estimate;
}

let safety_code = function
  | Safety.Unknown_relation _ -> ("unknown-relation", Diagnostic.Error)
  | Safety.Arity_mismatch _ -> ("arity-mismatch", Diagnostic.Error)
  | Safety.Empty_sum_tuple -> ("empty-sum-tuple", Diagnostic.Error)
  | Safety.Nondeterministic_gamma _ ->
      ("nondeterministic-gamma", Diagnostic.Error)
  | Safety.Undecided_gamma _ -> ("undecided-gamma", Diagnostic.Info)

let safety_pass db target =
  let issues =
    match target with
    | Formula f -> Safety.check_formula db f
    | Term t -> Safety.check_term db t
  in
  List.map
    (fun issue ->
      let code, severity = safety_code issue in
      {
        Diagnostic.severity;
        code;
        path = [];
        message = Format.asprintf "%a" Safety.pp_issue issue;
      })
    issues

let analyze ?db ?(options = default_options) target =
  let scope, scope_diags =
    match target with
    | Formula f -> (Scope.report_formula f, Scope.check_formula f)
    | Term t -> (Scope.report_term t, Scope.check_term t)
  in
  let classification, frag_diags =
    match target with
    | Formula f -> Fragment.classify_formula ?db f
    | Term t -> Fragment.classify_term ?db t
  in
  let range_diags =
    match target with
    | Formula f -> Range.check_formula ?db f
    | Term t -> Range.check_term ?db t
  in
  let cost =
    match target with
    | Formula f -> Cost.estimate_formula ~endpoints:options.endpoints f
    | Term t -> Cost.estimate_term ~endpoints:options.endpoints t
  in
  let cost_diags = Cost.check ~threshold:options.threshold cost in
  let safety_diags =
    match db with None -> [] | Some db -> safety_pass db target
  in
  {
    target;
    diagnostics =
      Diagnostic.sort
        (safety_diags @ scope_diags @ frag_diags @ range_diags @ cost_diags);
    scope;
    classification;
    hint = classification.Fragment.hint;
    cost;
  }

let analyze_formula ?db ?options f = analyze ?db ?options (Formula f)
let analyze_term ?db ?options t = analyze ?db ?options (Term t)
let error_count r = Diagnostic.count Diagnostic.Error r.diagnostics
let warning_count r = Diagnostic.count Diagnostic.Warning r.diagnostics

let ok ?(deny_warnings = false) r =
  error_count r = 0 && ((not deny_warnings) || warning_count r = 0)

let pp_target fmt = function
  | Formula f -> Ast.pp fmt f
  | Term t -> Ast.pp_term fmt t

(* compiled programs render to pages; keep the human header skimmable *)
let truncated_target r =
  let s = Format.asprintf "%a" pp_target r.target in
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

let pp_result ?(show_info = false) fmt r =
  Format.fprintf fmt "@[<v>query: %s@," (truncated_target r);
  Format.fprintf fmt "fragment: %a@," Fragment.pp_classification
    r.classification;
  Format.fprintf fmt "scope: %a@," Scope.pp_report r.scope;
  Format.fprintf fmt "cost: %a@," Cost.pp_estimate r.cost;
  let shown =
    if show_info then r.diagnostics
    else
      List.filter
        (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
        r.diagnostics
  in
  Format.fprintf fmt "diagnostics: %d error(s), %d warning(s)%s"
    (error_count r) (warning_count r)
    (if shown = [] then "" else ":");
  List.iter (fun d -> Format.fprintf fmt "@,  %a" Diagnostic.pp d) shown;
  Format.fprintf fmt "@]"

let result_to_json r =
  Printf.sprintf
    {|{"query":%s,"hint":"%s","classification":%s,"scope":%s,"cost":%s,"errors":%d,"warnings":%d,"diagnostics":%s}|}
    (Cqa_telemetry.Tjson.quote (Format.asprintf "%a" pp_target r.target))
    (Dispatch.to_string r.hint)
    (Fragment.classification_to_json r.classification)
    (Scope.report_to_json r.scope)
    (Cost.estimate_to_json r.cost)
    (error_count r) (warning_count r)
    (Diagnostic.list_to_json r.diagnostics)
