(** The end-to-end design flow of Fig. 1/Fig. 2: UML model in,
    synthesizable Simulink CAAM (plus [.mdl] text, FSMs for the
    control-flow subsystems, and multithreaded code) out.

    Pipeline: validate → allocate threads (deployment diagram or the
    §4.2.3 optimization) → map (§4.1) → infer channels (§4.2.1) →
    insert temporal barriers (§4.2.2) — the synthesis, {!synthesize} —
    then, in {!run} only, lay out the blocks and emit the [.mdl] text
    for the Simulink GUI; both end by flattening the statecharts to
    FSMs. *)

type allocation_strategy =
  | Use_deployment  (** require the deployment diagram *)
  | Prefer_deployment  (** use it when present, else infer *)
  | Infer_linear  (** ignore the diagram, one CPU per linear cluster *)
  | Infer_bounded of int

val strategy_name : allocation_strategy -> string
(** Stable spelling: ["deployment"], ["prefer-deployment"], ["linear"],
    ["bounded-N"] — the CLI's [--strategy] vocabulary (plus the [--cpus]
    bound), reused by the serving layer's query parameters. *)

val strategy_of_string : string -> (allocation_strategy, string) result
(** The one parser of [--strategy] and [strategy=]: accepts
    ["deployment"], ["prefer-deployment"] and ["linear"]; the error
    for anything else names them. *)

val with_cpus : int option -> allocation_strategy -> allocation_strategy
(** [with_cpus (Some n) s] is [Infer_bounded n] whatever [s]: a CPU
    bound ([--cpus], [cpus=]) wins over the named strategy. *)

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
  ?strategy:allocation_strategy ->
  ?ctx:Umlfront_obs.Context.t ->
  Umlfront_uml.Model.t ->
  output
(** [ctx] runs the flow inside an explicit telemetry context: all
    spans, metrics, journal entries and tokens land in [ctx] instead of
    the process-global sinks, so concurrent runs with distinct contexts
    observe fully disjoint telemetry.  Default: the current context.
    This is the only driver that takes a context; run any other inside
    {!Umlfront_obs.Context.with_current}.

    @raise Invalid_argument on a malformed model or [Use_deployment]
    without a deployment diagram. *)

val synthesize :
  ?strategy:allocation_strategy ->
  Umlfront_uml.Model.t ->
  Umlfront_simulink.Model.t
(** The synthesized CAAM of a model: {!run}'s phases up to the temporal
    barriers, then its FSM phase, whose FSMs are dropped; no layout and
    no [.mdl] text.  It differs from [(run uml).caam] only in that no
    block carries a [Position] parameter, which nothing but the [.mdl]
    text and the E-core export reads: lint, simulation, conformance and
    the C, Java, SystemC and KPN generators see the same model either
    way.  Records the same [flow.run] root span, journal entry and
    [flow.runs] count as {!run}, over the phases it runs.

    @raise Invalid_argument as {!run} does, a malformed statechart
    included. *)

val ecore_xml : output -> string
(** The intermediate model-to-model artifact of Fig. 2: the generated
    CAAM serialized against the Simulink meta-model in E-core style XML
    (what the paper's step 2 hands to steps 3-4). *)
