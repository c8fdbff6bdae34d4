(** The serving API: pure endpoint logic, no sockets — the one place
    that turns (endpoint, options, model) into a result.

    Each endpoint is a typed computation plus a JSON encoding; {!run}
    composes them for {!Server}, which adds transport, admission
    control, caching and telemetry.  The CLI's [map], [lint],
    [simulate], [conform] and [codegen] parse their flags into
    {!options} with the parsers {!options_of_query} uses and call the
    same computations, so the two surfaces differ only in transport.
    [POST /api/lint] and [POST /api/conform] bodies are exactly what
    [umlfront lint --format json MODEL] (pass [?file=MODEL] for the
    [file] field) and [umlfront conform --format json MODEL] print:
    both surfaces print {!lint_json} and {!conform_json}. *)

exception Timeout
(** Raised between pipeline phases once the request deadline passed;
    the server maps it to [503] with [Retry-After]. *)

type endpoint =
  | Lint
  | Transform
  | Simulate
  | Conform
  | Generate of [ `C | `Java | `Kpn ]

val endpoint_name : endpoint -> string
(** ["lint"], ["transform"], …, ["generate/c"]. *)

val endpoint_of_path : string -> endpoint option
(** Recognizes ["/api/lint"], …, ["/api/generate/c"]. *)

val all_endpoints : endpoint list

type options = {
  strategy : Umlfront_core.Flow.allocation_strategy;
  rounds : int;  (** execution rounds (simulate/conform/generate) *)
  engine : Umlfront_conformance.Conform.engine;
      (** the engine [engine=] or [--engine] gave; [`Seq] when none was
          given.  Read it through {!engine}, which applies the
          endpoint's default. *)
  engine_given : bool;
      (** whether [engine] was given; set with it by
          {!options_of_query}, and by the CLI, which always gives one *)
  backends : Umlfront_conformance.Conform.backend list option;
      (** conform only; [None] = all *)
  file : string option;  (** echoed in the lint JSON, CLI-style *)
  trace : bool;
      (** retain this request's span tree ([?trace=1]).  Deliberately
          {e not} part of {!cache_key}: tracing a request must not
          change what it computes or where it caches. *)
}

val default_options : options
(** [Prefer_deployment], 10 rounds, no engine given (each endpoint's
    default, see {!engine}), all backends. *)

val engine : endpoint -> options -> Umlfront_conformance.Conform.engine
(** The engine an endpoint runs: the one [options] gave, else the
    endpoint's default.  [Simulate] defaults to [`Compiled], the
    compiled plan; [Conform] to [`Seq], {!Umlfront_dataflow.Exec.run},
    the oracle every backend is diffed against.  The other endpoints
    run no executor. *)

val count_of_string : what:string -> string -> (int, string) result
(** The one parser of rounds and CPU counts, on both surfaces: an
    integer [>= 1]; the error names [what] and the text. *)

val options_of_query : (string * string) list -> (options, string) result
(** Query vocabulary: [strategy=deployment|prefer-deployment|linear],
    [cpus=N] (bounded inference, wins over [strategy] as in the CLI),
    [rounds=N] (1..10000), [engine=seq|compiled] (absent: the
    endpoint's default, see {!engine}), [backends=a,b,...],
    [file=PATH], [trace=0|1], parsed by the CLI's own parsers.  The
    10,000-round cap is HTTP's alone: it bounds untrusted input.
    Unknown keys are rejected — a typo must not silently select a
    default. *)

val parse_model :
  string -> (Umlfront_uml.Model.t, Umlfront_analysis.Diagnostic.t) result
(** Parse request-body XMI.  Malformed input comes back as a
    [Diagnostic.t] with code [UF901] for a 422 response. *)

val cache_key : endpoint -> options -> Umlfront_uml.Model.t -> Cache.key
(** The canonical cache key of a request, hashed by nothing slower than
    MD5: its [options] name the endpoint, the options it reads and the
    strategy ([file] on lint; [rounds] on simulate, conform and
    generate; the resolved {!engine} on simulate and conform;
    [backends] on conform); its [model] is the parsed model's bytes
    ([Marshal] without sharing, about a quarter of its XMI); its [id]
    is the MD5 hex of both.  Equal keys guarantee equal response
    bodies, and options an endpoint ignores do not split its entries:
    [/api/simulate] and [/api/simulate?engine=compiled] share one.  Two
    texts that parse to the same model (whitespace, attribute order)
    share a key. *)

val raw_key : endpoint -> options -> string -> string
(** The key of a request body as it arrived, for {!Cache.find_raw}:
    the options {!cache_key} covers (the strategy included, [bounded-N]
    too, [trace] not) and the MD5 of [body], which is digested without
    being copied.  Two raw keys are equal exactly when the [cache_key]s
    of the same body would be, so a request can be answered from the
    cache without parsing it; bodies that differ only in whitespace get
    different raw keys and meet at their common [cache_key] instead. *)

(** {2 Computations}

    What each endpoint computes, before any encoding; the CLI calls
    these too. *)

val transform : options -> Umlfront_uml.Model.t -> Umlfront_core.Flow.output
(** The flow under [options.strategy] ([umlfront map], [/api/transform]). *)

val caam : options -> Umlfront_uml.Model.t -> Umlfront_simulink.Model.t
(** {!Umlfront_core.Flow.synthesize} under [options.strategy]: the CAAM
    every endpoint but [Transform] computes on, for the server and the
    CLI.  No reply of theirs holds positions or [.mdl] text, and the
    KPN source lays out the model it embeds, so none of them pays for
    layout or printing. *)

val lint :
  Umlfront_uml.Model.t -> Umlfront_simulink.Model.t -> Umlfront_analysis.Diagnostic.t list
(** Lint findings on a model and on the CAAM {!caam} made of it. *)

val simulate :
  ?pool:Umlfront_parallel.Pool.t ->
  options ->
  Umlfront_dataflow.Sdf.t ->
  Umlfront_dataflow.Exec.outcome
(** [options.rounds] rounds on [engine Simulate options]; only
    [`Compiled] runs on [pool] (the CLI's [-j]). *)

val conform :
  ?pool:Umlfront_parallel.Pool.t ->
  options ->
  Umlfront_simulink.Model.t ->
  Umlfront_conformance.Conform.report
(** {!Umlfront_conformance.Conform.check} of a CAAM under [options],
    against the reference [engine Conform options]; the server passes
    no [pool], so it spawns no domains. *)

val files :
  [< `C | `Java | `Kpn | `Systemc ] ->
  options ->
  Umlfront_simulink.Model.t ->
  (string * string) list
(** (file name, contents) of a language for [options.rounds] rounds:
    what [umlfront codegen] writes and [/api/generate/*] returns. *)

(** {2 Encodings} *)

val lint_json : (string option * Umlfront_analysis.Diagnostic.t list) list -> string
(** One [Diagnostic.list_to_json] entry per (file, findings), plus a
    newline. *)

val conform_json : Umlfront_conformance.Conform.report -> string
(** [Conform.to_json] plus a newline. *)

(** {2 Endpoints} *)

type outcome = { status : int; content_type : string; body : string }

val run : ?deadline:float -> endpoint -> options -> Umlfront_uml.Model.t -> outcome
(** Execute one endpoint: its computation, then its encoding, with the
    deadline checked between phases.  Flow/executor failures
    (unflattenable model, zero-delay deadlock, missing deployment
    diagram, …) return a 422
    outcome whose body is a [UF902] diagnostic in the same JSON shape
    the lint endpoint uses; only {!Timeout} escapes as an exception.

    @raise Timeout once [deadline] (absolute, [Unix.gettimeofday]
    clock) has passed at a phase boundary. *)
