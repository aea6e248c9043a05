(** Wire protocol of the [cqa serve] daemon: newline-delimited JSON, one
    request object per line in, one response object per line out.

    Requests carry an ["op"] field selecting the operation and an optional
    ["id"] correlation token (string or number) echoed verbatim in the
    response.  Operations:

    - [{"op":"ping"}] — liveness probe.
    - [{"op":"plan","query":Q,...}] — compile (or fetch from the plan
      cache) the query's plan, register it under its plan id for later
      [By_id] requests, and describe it.
    - [{"op":"vol",...}] — [VOL_I] of a query, by text or by registered
      plan id, with optional parameter bindings in ["args"].  A request by
      text compiles through the plan cache but registers no id.  An id
      stands for the questions it was registered with, recompiled against
      the database as it is now; after an update the response may name a
      different plan id, and an id whose questions an update has made
      compile differently is refused with [ambiguous-plan].
    - [{"op":"vol_batch",...,"bindings":[[...],...]}] — many bindings of
      one plan in a single request.
    - [{"op":"insert","schema":S,"rel":R,"region":F}] /
      [{"op":"remove",...}] — update the schema's shared database in
      place: union ([insert]) or subtract ([remove]) the semi-linear
      region defined by the relation-free FO + LIN formula [F] (over the
      relation's canonical coordinates [x0, x1, ...]) into relation [R].
      The write is {e linearized} against in-flight volume requests: the
      batch queue is flushed before the update applies, so every earlier
      request sees the old database and every later one the new.  The
      response carries the new ["version"] and the delta's bounding box.
    - [{"op":"db_version","schema":S}] — current version of the schema's
      shared database (0 until the first update).
    - [{"op":"stats"}] — server counters, plan-cache stripe accounting and
      the current telemetry snapshot.
    - [{"op":"reset"}] — clear the plan cache, the registered-plan table
      and the engine memo caches (cold-start for benchmarks).
    - [{"op":"shutdown"}] — stop the server after responding.

    Query-bearing requests take ["schema"] (relation arities,
    ["U:1,P:2"]), ["params"] (parameter-slot variable names, array of
    strings), ["budget"] (admission budget override), ["admission"]
    (["degrade"] or ["reject"]), and the sampler knobs ["eps"], ["delta"],
    ["seed"] used when a request degrades.  A degrading request answers
    [bad-args] when ["eps"] or ["delta"] lies outside (0, 1), or when its
    Blumer sample size exceeds {!max_sample_points}; the size is checked
    before any point is drawn.  Rational values — parameter
    bindings in, volumes out — travel as ["p/q"] strings; integer-valued
    JSON numbers are accepted in bindings (non-integers are read as their
    exact dyadic value).

    Responses are [{"ok":true,"op":...,...}] or
    [{"ok":false,"error":{"code":C,"msg":M}}] with stable error codes:
    [parse-error], [bad-request], [unknown-op], [unknown-plan],
    [ambiguous-plan], [bad-args], [over-budget], [not-exact], [not-semilinear], [unbounded],
    [server-busy], [line-too-long], [internal-error].  A request line
    longer than 1 MiB is answered with [line-too-long] and its connection
    is closed. *)

open Cqa_arith

(** What admission control does with a request whose engine decision is
    not [Run_exact]: degrade to the Theorem 4 sampler, or reject with an
    [over-budget] / [not-exact] error. *)
type admission = Degrade | Reject

val admission_of_string : string -> admission option
val admission_to_string : admission -> string

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

val default_opts : vol_opts

val max_sample_points : int
(** Ceiling on the sample a degraded request may draw: [1_000_000]
    points.  At the default [eps = delta = 0.1] a 2-D query draws 2249. *)

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

type parsed = {
  rid : string option;
      (** the request's ["id"] field, re-rendered as JSON text ready to
          splice into the response *)
  req : request;
}

val parse : string -> (parsed, string * string) result
(** Parse one request line.  [Error (code, msg)] uses the stable error
    codes above ([parse-error] for malformed JSON, [unknown-op] /
    [bad-request] for well-formed JSON that is not a valid request). *)

(** {1 Response rendering} (single line, no trailing newline) *)

val ok : ?rid:string -> op:string -> (string * string) list -> string
(** [ok ~rid ~op fields] renders [{"ok":true,"op":op,"id":rid,<fields>}];
    each field value is already-rendered JSON text. *)

val error : ?rid:string -> ?op:string -> code:string -> string -> string
(** [error ~rid ~op ~code msg]. *)

val json_string : string -> string
(** Quote and escape ({!Cqa_telemetry.Tjson.quote}). *)

val json_q : Q.t -> string
(** The ["p/q"] rendering volumes and bindings travel as. *)

val json_float : float -> string

(** {1 Value helpers} *)

val q_of_json : Cqa_telemetry.Tjson.t -> (Q.t, string) result

val schema_of_spec : string -> (Cqa_logic.Schema.t, string) result
(** ["U:1,P:2"] (commas or spaces) to a schema. *)

val vars_of_spec : string list -> Cqa_logic.Var.t array
