let log = Logs.Src.create "umlfront.flow" ~doc:"UML front-end design flow"

module Log = (val Logs.src_log log : Logs.LOG)
module Obs = Umlfront_obs

type allocation_strategy =
  | Use_deployment
  | Prefer_deployment
  | Infer_linear
  | Infer_bounded of int

let strategy_name = function
  | Use_deployment -> "deployment"
  | Prefer_deployment -> "prefer-deployment"
  | Infer_linear -> "linear"
  | Infer_bounded n -> Printf.sprintf "bounded-%d" n

let strategy_of_string = function
  | "deployment" -> Ok Use_deployment
  | "prefer-deployment" -> Ok Prefer_deployment
  | "linear" -> Ok Infer_linear
  | other ->
      Error
        (Printf.sprintf
           "unknown strategy %S (expected deployment, prefer-deployment or linear)"
           other)

let with_cpus cpus strategy =
  match cpus with Some n -> Infer_bounded n | None -> strategy

type output = {
  caam : Umlfront_simulink.Model.t;
  mdl : string;
  allocation : (string * string) list;
  trace : Umlfront_metamodel.Trace.t;
  intra_channels : int;
  inter_channels : int;
  delays_inserted : int;
  broken_cycles : string list list;
  fsms : (string * Uml2fsm.generated) list;
}

let choose_allocation strategy uml =
  match strategy with
  | Use_deployment -> (
      match Allocation.from_deployment uml with
      | Some a -> a
      | None -> invalid_arg "flow: no deployment diagram in the model")
  | Prefer_deployment -> (
      match Allocation.from_deployment uml with
      | Some a -> a
      | None -> Allocation.infer uml)
  | Infer_linear -> Allocation.infer uml
  | Infer_bounded n -> Allocation.infer ~strategy:(Allocation.Bounded n) uml

(* Each phase of §4.1–4.2.3 runs under its own span so a profile of a
   large model shows where the time goes; the span args are thunks and
   cost nothing when the sink is off.  Phase starts also land in the
   always-on run journal, so `umlfront journal` can replay the phase
   sequence of a run that never enabled profiling. *)
let phase name ?args f =
  Obs.Journal.record ("flow." ^ name);
  Obs.Trace.with_span ~cat:"flow" ("flow." ^ name) ?args f

(* The synthesis of §4.1–4.2.3: validate → allocate → map → channels →
   barriers, each under its own phase span; the caller opens the
   [flow.run] root.  Returns every phase's result, the CAAM before
   layout last. *)
let synthesis_phases ~strategy uml =
  let issues = phase "validate" (fun () -> Umlfront_uml.Validate.check uml) in
  Obs.Metrics.incr "flow.validate.issues" ~by:(List.length issues);
  List.iter
    (fun (i : Umlfront_uml.Validate.issue) ->
      Obs.Events.emit ~level:Logs.Warning ~src:log
        ~fields:
          [
            ("where", Umlfront_obs.Json.String i.Umlfront_uml.Validate.where);
            ("what", Umlfront_obs.Json.String i.Umlfront_uml.Validate.what);
          ]
        "flow.validate.issue")
    issues;
  let allocation = phase "allocate" (fun () -> choose_allocation strategy uml) in
  Log.debug (fun m ->
      m "allocation: %s"
        (String.concat ", " (List.map (fun (t, c) -> t ^ "->" ^ c) allocation)));
  let mapped =
    phase "map" (fun () ->
        Umlfront_uml.Validate.raise_first issues;
        Mapping.run ~allocation uml)
  in
  let channelized =
    phase "channels" (fun () -> Channel_inference.run mapped.Mapping.model)
  in
  Obs.Metrics.incr "flow.channels.intra" ~by:channelized.Channel_inference.intra_channels;
  Obs.Metrics.incr "flow.channels.inter" ~by:channelized.Channel_inference.inter_channels;
  Log.debug (fun m ->
      m "channels: %d intra, %d inter" channelized.Channel_inference.intra_channels
        channelized.Channel_inference.inter_channels);
  let barriered =
    phase "barriers" (fun () -> Loop_breaker.run channelized.Channel_inference.model)
  in
  Obs.Metrics.incr "flow.barriers.inserted" ~by:barriered.Loop_breaker.delays_inserted;
  if barriered.Loop_breaker.delays_inserted > 0 then
    Log.info (fun m ->
        m "inserted %d temporal barrier(s)" barriered.Loop_breaker.delays_inserted);
  (allocation, mapped, channelized, barriered)

(* [?ctx] runs the whole flow inside an explicit telemetry context:
   spans, counters, journal entries and tokens all land in [ctx]
   instead of the process-global default, which is what makes
   concurrent flows observable in isolation.  Without it, the current
   (usually global) context is used — the historical behaviour.  Both
   [run] and [synthesize] open one [flow.run] root over the phases they
   run. *)
let root ?ctx uml f =
  (match ctx with Some c -> Obs.Context.with_current c | None -> fun f -> f ())
  @@ fun () ->
  if Obs.Trace.enabled () then
    Obs.Trace.set_process_name uml.Umlfront_uml.Model.model_name;
  phase "run"
    ~args:(fun () -> [ ("model", Umlfront_obs.Json.String uml.Umlfront_uml.Model.model_name) ])
  @@ fun () ->
  Log.info (fun m ->
      m "flow start: model %s, %d threads" uml.Umlfront_uml.Model.model_name
        (List.length (Umlfront_uml.Model.threads uml)));
  Obs.Metrics.incr "flow.runs";
  f ()

let finish caam =
  let blocks = Umlfront_simulink.System.total_blocks caam.Umlfront_simulink.Model.root in
  Obs.Metrics.incr "flow.blocks" ~by:blocks;
  Log.info (fun m ->
      m "flow done: %d blocks, %d lines" blocks
        (Umlfront_simulink.System.total_lines caam.Umlfront_simulink.Model.root))

(* The FSM phase runs for what it rejects: a malformed statechart fails
   here as it fails [run]. *)
let synthesize ?(strategy = Prefer_deployment) uml =
  root uml @@ fun () ->
  let _, _, _, barriered = synthesis_phases ~strategy uml in
  let caam = barriered.Loop_breaker.model in
  ignore (phase "fsm" (fun () -> Uml2fsm.run uml));
  finish caam;
  caam

let run ?(strategy = Prefer_deployment) ?ctx uml =
  root ?ctx uml @@ fun () ->
  let allocation, mapped, channelized, barriered = synthesis_phases ~strategy uml in
  let caam = phase "layout" (fun () -> Umlfront_simulink.Layout.run barriered.Loop_breaker.model) in
  let mdl = phase "emit" (fun () -> Umlfront_simulink.Mdl_writer.to_string caam) in
  let fsms = phase "fsm" (fun () -> Uml2fsm.run uml) in
  finish caam;
  {
    caam;
    mdl;
    allocation;
    trace = mapped.Mapping.trace;
    intra_channels = channelized.Channel_inference.intra_channels;
    inter_channels = channelized.Channel_inference.inter_channels;
    delays_inserted = barriered.Loop_breaker.delays_inserted;
    broken_cycles = barriered.Loop_breaker.broken_cycles;
    fsms;
  }

let ecore_xml output =
  Umlfront_metamodel.Ecore_io.to_string (Metamodels.simulink_to_mmodel output.caam)
