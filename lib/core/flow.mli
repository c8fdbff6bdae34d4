(** The end-to-end design flow of Fig. 1/Fig. 2: UML model in,
    synthesizable Simulink CAAM (plus [.mdl] text, FSMs for the
    control-flow subsystems, and multithreaded code) out.

    Pipeline: validate → allocate threads (deployment diagram or the
    §4.2.3 optimization) → map (§4.1) → infer channels (§4.2.1) →
    insert temporal barriers (§4.2.2) → emit. *)

type allocation_strategy =
  | Use_deployment  (** require the deployment diagram *)
  | Prefer_deployment  (** use it when present, else infer *)
  | Infer_linear  (** ignore the diagram, one CPU per linear cluster *)
  | Infer_bounded of int

val strategy_name : allocation_strategy -> string
(** Stable spelling: ["deployment"], ["prefer-deployment"], ["linear"],
    ["bounded-N"] — the CLI's [--strategy] vocabulary (plus the [--cpus]
    bound), reused by the serving layer's query parameters. *)

val cache_material :
  ?style:Mapping.style ->
  ?strategy:allocation_strategy ->
  Umlfront_uml.Model.t ->
  string
(** The pure cache identity of a {!run}: canonical XMI bytes of the
    model prefixed with every option that steers the phases.  Equal
    material guarantees an equal flow output (the pipeline is
    deterministic), which is what lets [umlfront serve] key its
    content-hash response cache on a SHA-256 of this string plus the
    endpoint and its remaining options. *)

type output = {
  caam : Umlfront_simulink.Model.t;  (** after all optimization passes *)
  mdl : string;  (** the generated .mdl text *)
  allocation : (string * string) list;
  trace : Umlfront_metamodel.Trace.t;
  intra_channels : int;
  inter_channels : int;
  delays_inserted : int;
  broken_cycles : string list list;
  fsms : (string * Uml2fsm.generated) list;
}

val run :
  ?style:Mapping.style ->
  ?strategy:allocation_strategy ->
  ?gate:[ `Errors | `Warnings ] ->
  ?ctx:Umlfront_obs.Context.t ->
  Umlfront_uml.Model.t ->
  output
(** [gate] adds a lint phase after synthesis: the UML source and the
    generated CAAM are run through {!Umlfront_analysis.Lint.check},
    every finding is emitted as a structured event, and findings the
    policy denies ([`Errors], or also warnings with [`Warnings]) fail
    the run.  Default: no gate.

    [ctx] runs the flow inside an explicit telemetry context: all
    spans, metrics, journal entries and tokens land in [ctx] instead of
    the process-global sinks, so concurrent runs with distinct contexts
    observe fully disjoint telemetry.  Default: the current context.
    This is the only driver that takes a context; run any other inside
    {!Umlfront_obs.Context.with_current}.

    @raise Invalid_argument on a malformed model, [Use_deployment]
    without a deployment diagram, or a denied lint finding. *)

val ecore_xml : output -> string
(** The intermediate model-to-model artifact of Fig. 2: the generated
    CAAM serialized against the Simulink meta-model in E-core style XML
    (what the paper's step 2 hands to steps 3-4). *)

val c_code : ?rounds:int -> output -> Umlfront_codegen.Gen_threads.generated
val java_code : ?rounds:int -> ?class_name:string -> output -> string
