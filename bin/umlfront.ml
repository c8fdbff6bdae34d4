(* umlfront: command-line front-end for the UML -> heterogeneous code
   generation flow.

     umlfront map model.xml -o model.mdl     UML -> Simulink CAAM (.mdl)
     umlfront allocate model.xml             show the inferred thread allocation
     umlfront simulate model.xml -n 20       map + run on the SDF executor
     umlfront codegen model.xml -d out/      map + emit multithreaded C
     umlfront fsm model.xml -d out/          statecharts -> C FSMs
     umlfront dse model.xml                  design-space exploration sweep
     umlfront partition model.xml -o p.xml   split a 1-thread model into threads
     umlfront capture model.mdl -o model.xml reverse: CAAM .mdl -> UML XMI
     umlfront cosim model.xml -g glue.cosim  co-simulate FSM x dataflow
     umlfront example crane -o model.xml     dump a bundled case study as XMI
     umlfront report model.xml               full flow summary
     umlfront stats model.xml                run the flow instrumented, print metrics
     umlfront lint model.xml [more.xml...]   static analysis: UML, CAAM and SDF rules
     umlfront conform model.xml              diff every backend against the reference
     umlfront fuzz --seed 42 --count 50      conformance-fuzz random models
     umlfront journal model.xml              replay the run journal as JSON Lines
     umlfront bench-diff BASE NEW            perf regression gate over BENCH_*.json

   Any subcommand accepts a global `--profile FILE.json`: the run is
   traced (spans per flow phase, parser/executor metrics) and a Chrome
   trace-event file loadable in chrome://tracing or Perfetto is written
   on exit.  A global `--journal FILE.jsonl` likewise dumps the bounded
   run journal (phase starts, executor rounds, deadlocks) on exit.

   The input is the XMI-style XML of Umlfront_uml.Xmi. *)

module U = Umlfront_uml
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow
module Obs = Umlfront_obs
module Pool = Umlfront_parallel.Pool
module Api = Umlfront_serve.Api
module Conf = Umlfront_conformance.Conform
open Cmdliner

(* Convert the tool's failure exceptions into proper Cmdliner
   evaluation errors (message on stderr, exit code 124) instead of a
   raw [Failure] backtrace. *)
let protect f =
  try Ok (f ()) with
  | Failure m | Invalid_argument m | Sys_error m -> Error m
  | Umlfront_xml.Xml.Parse_error { line; column; message } ->
      Error (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | Umlfront_simulink.Mdl_parser.Error { line; message } ->
      Error (Printf.sprintf ".mdl parse error at line %d: %s" line message)
  | Umlfront_dataflow.Exec.Deadlock cycle ->
      Error ("deadlock (zero-delay cycle): " ^ String.concat " -> " cycle)

(* A subcommand whose [term] yields its action as a thunk, run under
   [protect]. *)
let command name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(term_result' (const protect $ term))

(* A converter over one of the parsers the serving API's query string
   uses, so both surfaces accept exactly the same spellings. *)
let parsed ~docv parse to_string =
  Arg.conv' ~docv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let count_conv what =
  parsed ~docv:"N" (Api.count_of_string ~what) string_of_int

let uml_arg =
  let doc = "UML model in umlfront XMI format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.xml" ~doc)

let cpus_arg =
  let doc = "Fold the inferred allocation to at most $(docv) CPUs." in
  Arg.(value & opt (some (count_conv "cpus")) None & info [ "cpus" ] ~docv:"N" ~doc)

(* `--strategy` and `--cpus` as one allocation strategy; a CPU bound
   wins, as `cpus=` does over HTTP. *)
let strategy_term =
  let doc =
    "Thread allocation strategy: deployment (use the deployment diagram), \
     prefer-deployment, or linear (infer by linear clustering)."
  in
  let strategy =
    Arg.(
      value
      & opt
          (parsed ~docv:"STRATEGY" Core.Flow.strategy_of_string Core.Flow.strategy_name)
          Core.Flow.Prefer_deployment
      & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)
  in
  Term.(const Core.Flow.with_cpus $ cpus_arg $ strategy)

let rounds_arg =
  let doc = "Number of execution rounds." in
  Arg.(
    value
    & opt (count_conv "rounds") Api.default_options.rounds
    & info [ "n"; "rounds" ] ~docv:"ROUNDS" ~doc)

let jobs_arg_with doc =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let jobs_arg =
  jobs_arg_with
    "Compute on $(docv) domains (0 = all the hardware offers). 1 keeps the \
     run sequential; results are identical either way."

(* simulate and conform: only the compiled executor runs on a pool. *)
let compiled_jobs_arg =
  jobs_arg_with
    "Run the compiled executor on $(docv) domains (0 = all the hardware \
     offers); the reference executor, $(b,seq), is always sequential.  \
     Results are identical either way."

(* `--engine seq|compiled`: which executor runs the SDF graph — the
   reference interpreter or the compiled flat-schedule one.  Its default
   is the command's endpoint's, from [Api.engine]. *)
let engine_arg endpoint ~doc =
  Arg.(
    value
    & opt
        (parsed ~docv:"ENGINE" Conf.engine_of_string Conf.engine_name)
        (Api.engine endpoint Api.default_options)
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let simulate_engine_arg =
  engine_arg Api.Simulate
    ~doc:
      "SDF execution engine: $(b,compiled) (the compiled flat-schedule \
       executor; work-stealing when -j > 1) or $(b,seq) (the reference \
       interpreter).  Results are bit-identical either way."

(* conform and fuzz: the engine is the reference every backend is
   diffed against. *)
let reference_engine_arg =
  engine_arg Api.Conform
    ~doc:
      "Reference engine every backend is diffed against: $(b,seq) (the \
       reference interpreter) or $(b,compiled) (the compiled flat-schedule \
       executor, run sequentially)."

(* `--backends seq,compiled,kpn,c,kpn-src` (default: all). *)
let backends_arg =
  let doc =
    "Comma-separated backends to check: seq, compiled, kpn, c, kpn-src \
     (default: all)."
  in
  let to_string bs = String.concat "," (List.map Conf.backend_name bs) in
  Arg.(
    value
    & opt (some (parsed ~docv:"LIST" Conf.backends_of_string to_string)) None
    & info [ "backends" ] ~docv:"LIST" ~doc)

(* Run [f] with a domain pool of the requested size ([0] = hardware
   cores), shut down afterwards.  jobs <= 1 skips pool creation. *)
let with_jobs jobs f =
  if jobs = 1 then f None
  else
    let domains = if jobs <= 0 then Pool.cpu_count () else jobs in
    Pool.with_pool ~domains (fun pool -> f (Some pool))

(* lint and conform: `--format text|json`. *)
let report_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Report format: text or json.")

let out_arg =
  let doc = "Output file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let dir_arg =
  let doc = "Output directory." in
  Arg.(value & opt string "." & info [ "d"; "directory" ] ~docv:"DIR" ~doc)

let load path = U.Xmi.load path

let write_file file text =
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc text)

(* Write [text] to the -o FILE and say so, or print it. *)
let emit out text =
  match out with
  | Some file ->
      write_file file text;
      Printf.printf "wrote %s\n" file
  | None -> print_string text

let example_cmd =
  let action name out () =
    let model =
      match name with
      | "didactic" -> Umlfront_casestudies.Didactic.model ()
      | "crane" -> Umlfront_casestudies.Crane_system.model ()
      | "synthetic" -> Umlfront_casestudies.Synthetic_system.model ()
      | "mjpeg" -> Umlfront_casestudies.Mjpeg_system.model ()
      | "elevator" -> Umlfront_casestudies.Elevator_system.model ()
      | other -> failwith (Printf.sprintf "unknown example %S" other)
    in
    emit out (U.Xmi.to_string model)
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum
                       [ ("didactic", "didactic"); ("crane", "crane");
                         ("synthetic", "synthetic"); ("mjpeg", "mjpeg");
                         ("elevator", "elevator") ])) None
      & info [] ~docv:"NAME" ~doc:"Case study: didactic, crane, synthetic, mjpeg or elevator.")
  in
  command "example" ~doc:"Dump a bundled case-study UML model as XMI"
    Term.(const action $ name_arg $ out_arg)

let dse_cmd =
  let action path max_cpus jobs () =
    let result =
      with_jobs jobs (fun pool -> Core.Dse.explore ?max_cpus ?pool (load path))
    in
    print_string (Core.Dse.summary result)
  in
  (* A sweep bound, not a strategy: a bound below 1 sweeps one CPU. *)
  let max_cpus_arg =
    let doc = "Fold the inferred allocation to at most $(docv) CPUs." in
    Arg.(value & opt (some int) None & info [ "cpus" ] ~docv:"N" ~doc)
  in
  command "dse" ~doc:"Design-space exploration: sweep CPU counts, report Pareto set"
    Term.(const action $ uml_arg $ max_cpus_arg $ jobs_arg)

let partition_cmd =
  let action path threads out () =
    let r = Core.Partitioning.run ?threads (load path) in
    List.iter
      (fun (call, thread) -> Printf.printf "  %-40s -> %s\n" call thread)
      r.Core.Partitioning.thread_of_call;
    List.iter
      (fun (token, p, c) -> Printf.printf "  transfer %s: %s -> %s\n" token p c)
      r.Core.Partitioning.cut_tokens;
    match out with
    | Some file ->
        U.Xmi.save r.Core.Partitioning.partitioned file;
        Printf.printf "wrote %s\n" file
    | None -> ()
  in
  let threads_arg =
    Arg.(
      value & opt (some int) None
      & info [ "threads" ] ~docv:"N" ~doc:"Bound the number of threads.")
  in
  command "partition" ~doc:"Automatically partition a single-threaded model into threads"
    Term.(const action $ uml_arg $ threads_arg $ out_arg)

let capture_cmd =
  let action path out () =
    let caam = Umlfront_simulink.Mdl_parser.parse_file path in
    emit out (U.Xmi.to_string (Core.Capture.run caam))
  in
  let mdl_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.mdl" ~doc:"CAAM .mdl file.")
  in
  command "capture" ~doc:"Reverse mapping: capture a Simulink CAAM as a UML model"
    Term.(const action $ mdl_arg $ out_arg)

let map_cmd =
  let action path strategy out ecore blockdot () =
    let output = Api.transform { Api.default_options with strategy } (load path) in
    emit out (if ecore then Core.Flow.ecore_xml output else output.Core.Flow.mdl);
    Option.iter
      (fun file ->
        Umlfront_simulink.Block_dot.save output.Core.Flow.caam ~path:file;
        Printf.printf "wrote %s\n" file)
      blockdot
  in
  let ecore_arg =
    Arg.(
      value & flag
      & info [ "ecore" ]
          ~doc:"Emit the intermediate E-core XML (Simulink meta-model) instead of .mdl.")
  in
  let blockdot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "block-dot" ] ~docv:"FILE"
          ~doc:"Also write the generated block diagram as Graphviz.")
  in
  command "map" ~doc:"Map a UML model to a Simulink CAAM (.mdl or E-core XML)"
    Term.(const action $ uml_arg $ strategy_term $ out_arg $ ecore_arg $ blockdot_arg)

let allocate_cmd =
  let action path dot () =
    let uml = load path in
    let g = Core.Allocation.task_graph uml in
    print_endline "task graph:";
    Format.printf "%a@." Umlfront_taskgraph.Graph.pp g;
    print_endline "linear clustering allocation:";
    List.iter
      (fun (th, cpu) -> Printf.printf "  %-12s -> %s\n" th cpu)
      (Core.Allocation.infer uml);
    match dot with
    | Some file ->
        let clustering =
          Umlfront_taskgraph.Linear_clustering.run (Core.Allocation.acyclic_view g)
        in
        Umlfront_taskgraph.Dot.save
          (Umlfront_taskgraph.Dot.clustered g clustering)
          ~path:file;
        Printf.printf "wrote %s\n" file
    | None -> ()
  in
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the clustered task graph as Graphviz.")
  in
  command "allocate" ~doc:"Show the automatic thread allocation (§4.2.3)"
    Term.(const action $ uml_arg $ dot_arg)

let simulate_cmd =
  let action path strategy rounds csv gantt jobs engine token_json token_dot () =
    if token_json <> None || token_dot <> None then Obs.Telemetry.enable ();
    let opts =
      { Api.default_options with strategy; rounds; engine; engine_given = true }
    in
    let sdf = Dataflow.Sdf.of_model (Api.caam opts (load path)) in
    let jobs = if engine = `Compiled then jobs else 1 in
    let outcome = with_jobs jobs (fun pool -> Api.simulate ?pool opts sdf) in
    if csv then print_string (Dataflow.Trace_export.traces_csv outcome)
    else
      List.iter
        (fun (port, samples) ->
          Printf.printf "%s:" port;
          Array.iter (fun v -> Printf.printf " %.6f" v) samples;
          print_newline ())
        outcome.Dataflow.Exec.traces;
    if gantt then print_string (Dataflow.Trace_export.gantt sdf);
    let write_to file text =
      write_file file text;
      Printf.eprintf "tokens: wrote %s\n%!" file
    in
    Option.iter
      (fun file ->
        write_to file (Obs.Json.to_string (Obs.Telemetry.to_json ()) ^ "\n"))
      token_json;
    Option.iter (fun file -> write_to file (Obs.Telemetry.flow_dot ())) token_dot;
    if not csv then
      Format.printf "%a@." Dataflow.Timing.pp_report (Dataflow.Timing.evaluate sdf)
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the traces as CSV instead of text.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of one iteration.")
  in
  let token_json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tokens" ] ~docv:"FILE"
          ~doc:
            "Trace every token causally and write channel statistics, occupancy \
             timelines and Chrome-trace flow events as JSON to $(docv).")
  in
  let token_dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "token-dot" ] ~docv:"FILE"
          ~doc:"Write the causal token-flow graph (Graphviz) to $(docv).")
  in
  command "simulate" ~doc:"Map and execute the CAAM on the SDF simulator"
    Term.(
      const action $ uml_arg $ strategy_term $ rounds_arg $ csv_arg $ gantt_arg
      $ compiled_jobs_arg $ simulate_engine_arg $ token_json_arg $ token_dot_arg)

let codegen_cmd =
  let action path strategy rounds dir lang () =
    let opts = { Api.default_options with strategy; rounds } in
    let caam = Api.caam opts (load path) in
    List.iter
      (fun (name, text) -> write_file (Filename.concat dir name) text)
      (Api.files lang opts caam);
    Printf.printf "wrote %s to %s\n"
      (match lang with
      | `C -> "model.c, sfunctions.[ch], fifo.[ch]"
      | `Java -> "GeneratedModel.java"
      | `Systemc -> "model_sc.cpp"
      | `Kpn -> "model_kpn.ml")
      dir
  in
  let lang_arg =
    Arg.(
      value
      & opt (enum [ ("c", `C); ("java", `Java); ("systemc", `Systemc); ("kpn", `Kpn) ]) `C
      & info [ "l"; "language" ] ~docv:"LANG"
          ~doc:"Target language: c, java, systemc or kpn.")
  in
  command "codegen" ~doc:"Generate multithreaded code from the CAAM"
    Term.(const action $ uml_arg $ strategy_term $ rounds_arg $ dir_arg $ lang_arg)

let fsm_cmd =
  let action path dir () =
    let uml = load path in
    let generated = Core.Uml2fsm.run uml in
    if generated = [] then print_endline "model has no statecharts"
    else
      List.iter
        (fun (name, (g : Core.Uml2fsm.generated)) ->
          (* The C includes "<sanitized name>.h", as Codegen_c.save names it. *)
          let base = Filename.concat dir (Umlfront_transform.M2t.sanitize name) in
          let write ext content = emit (Some (base ^ ext)) content in
          write ".h" g.Core.Uml2fsm.c_header;
          write ".c" g.Core.Uml2fsm.c_source;
          write ".dot" g.Core.Uml2fsm.dot)
        generated
  in
  command "fsm" ~doc:"Generate C FSMs from the model's statecharts"
    Term.(const action $ uml_arg $ dir_arg)

let audit_cmd =
  let action path strategy () =
    let uml = load path in
    let output = Core.Flow.run ~strategy uml in
    print_string (Core.Consistency.audit_report uml output)
  in
  command "audit" ~doc:"Cross-check UML source, trace links and generated CAAM"
    Term.(const action $ uml_arg $ strategy_term)

let cosim_cmd =
  let action path script_path rounds strategy () =
    let uml = load path in
    let output = Core.Flow.run ~strategy uml in
    let script = Umlfront_cosim.Script.load script_path in
    let charts = Core.Uml2fsm.run uml in
    let controller =
      match script.Umlfront_cosim.Script.chart with
      | Some name -> (
          match List.assoc_opt name charts with
          | Some g -> g.Core.Uml2fsm.fsm
          | None -> failwith (Printf.sprintf "no statechart %S in the model" name))
      | None -> (
          match charts with
          | [] -> failwith "model has no statecharts"
          | [ (_, g) ] -> g.Core.Uml2fsm.fsm
          | many ->
              Umlfront_fsm.Compose.product_list ~name:"composed"
                (List.map (fun (_, g) -> g.Core.Uml2fsm.fsm) many))
    in
    let rounds =
      match script.Umlfront_cosim.Script.rounds with Some n -> n | None -> rounds
    in
    let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
    let outcome =
      Umlfront_cosim.Cosim.run ~rounds sdf
        (Umlfront_cosim.Script.configure controller script)
    in
    List.iter
      (fun (s : Umlfront_cosim.Cosim.step) ->
        if s.Umlfront_cosim.Cosim.events <> [] then
          Format.printf "%a@." Umlfront_cosim.Cosim.pp_step s)
      outcome.Umlfront_cosim.Cosim.steps;
    Printf.printf "final state: %s\n" outcome.Umlfront_cosim.Cosim.final_state
  in
  let script_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "g"; "glue" ] ~docv:"SCRIPT" ~doc:"Co-simulation glue script.")
  in
  command "cosim" ~doc:"Co-simulate the model's statechart(s) against its generated dataflow"
    Term.(const action $ uml_arg $ script_arg $ rounds_arg $ strategy_term)

let plantuml_cmd =
  let action path dir () =
    let uml = load path in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    U.Plantuml.save uml ~dir;
    List.iter
      (fun (base, _) -> Printf.printf "wrote %s.puml\n" (Filename.concat dir base))
      (U.Plantuml.model uml)
  in
  command "plantuml" ~doc:"Export the UML diagrams as PlantUML"
    Term.(const action $ uml_arg $ dir_arg)

let report_cmd =
  let action path strategy rounds out () =
    let uml = load path in
    match out with
    | None ->
        let output = Core.Flow.run ~strategy uml in
        print_string (U.Metrics.report uml);
        print_string (Core.Report.flow_summary output);
        print_string (Core.Report.caam_tree output.Core.Flow.caam)
    | Some file ->
        (* -o FILE: the single-file HTML run report.  The instrumented
           run happens inside its own telemetry context with spans and
           token tracing armed, so the report captures exactly this run
           — whatever the process-global sinks were doing (a
           surrounding --profile, say) is untouched. *)
        let ctx = Obs.Context.create ~trace:true ~telemetry:true () in
        let output = Core.Flow.run ~strategy ~ctx uml in
        let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
        let html =
          Obs.Context.with_current ctx (fun () ->
              ignore (Dataflow.Exec.run ~rounds sdf);
              Obs.Html_report.render ~model_name:uml.U.Model.model_name
                ~events:(Obs.Trace.events ()) ~stats:(Obs.Metrics.snapshot ())
                ~channels:(Obs.Telemetry.channels ())
                ~timeline:Obs.Telemetry.occupancy_timeline
                ~journal:(Obs.Journal.entries ()) ~dropped:(Obs.Journal.dropped ()) ())
        in
        emit (Some file) html
  in
  command "report"
    ~doc:
      "Run the whole flow and print a summary, or with -o FILE write a \
       self-contained HTML run report (span tree, metrics, channel occupancy \
       timelines, journal tail)"
    Term.(const action $ uml_arg $ strategy_term $ rounds_arg $ out_arg)

let stats_cmd =
  let action path strategy rounds format metrics_out () =
    (* Enable the span sink so per-round latency histograms populate;
       keep whatever a surrounding --profile already set up. *)
    if not (Obs.Trace.enabled ()) then Obs.Trace.enable ();
    let output = Core.Flow.run ~strategy (load path) in
    (* Exercise the rest of the pipeline so parser and executor
       metrics appear alongside the flow's. *)
    ignore (Umlfront_simulink.Mdl_parser.parse_string output.Core.Flow.mdl);
    let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
    ignore (Dataflow.Exec.run ~rounds sdf);
    let snapshot = Obs.Metrics.snapshot () in
    let rendered =
      match format with
      | `Text -> Core.Report.metrics_table ~snapshot ()
      | `Json -> Obs.Json.to_string (Obs.Metrics.to_json snapshot) ^ "\n"
      | `Openmetrics ->
          Obs.Openmetrics.render ~journal_dropped:(Obs.Journal.dropped ())
            ~span_buffer_hwm:(Obs.Trace.buffer_hwm ())
            ~span_nesting_hwm:(Obs.Trace.nesting_hwm ()) snapshot
      | `Tree -> Obs.Span_tree.render (Obs.Trace.events ())
    in
    print_string rendered;
    match metrics_out with
    | Some file ->
        write_file file rendered;
        Printf.eprintf "stats: wrote %s\n%!" file
    | None -> ()
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("text", `Text); ("json", `Json); ("openmetrics", `Openmetrics);
               ("tree", `Tree);
             ])
          `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Registry format: text (table), json, openmetrics \
             (Prometheus/OpenMetrics text exposition), or tree (the span tree \
             with per-phase self/total time and allocation attribution).")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Also write the rendered registry to $(docv) (for scraping or CI artifacts).")
  in
  command "stats"
    ~doc:
      "Run the flow (map + reparse + simulate) under instrumentation and print \
       the metrics registry (text, JSON or OpenMetrics)"
    Term.(
      const action $ uml_arg $ strategy_term $ rounds_arg $ format_arg
      $ metrics_out_arg)

let journal_cmd =
  let action path strategy rounds kind limit tokens out () =
    if tokens then Obs.Telemetry.enable ();
    let output = Core.Flow.run ~strategy (load path) in
    let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
    ignore (Dataflow.Exec.run ~rounds sdf);
    let es = Obs.Journal.entries () in
    let es = match kind with Some k -> Obs.Journal.filter ~kind:k es | None -> es in
    let es =
      match limit with
      | Some n when n >= 0 ->
          (* Keep the newest [n]: the end of a run is the end you read. *)
          let drop = max 0 (List.length es - n) in
          List.filteri (fun i _ -> i >= drop) es
      | _ -> es
    in
    (match out with
    | Some file ->
        write_file file (Obs.Journal.to_jsonl es);
        Printf.printf "wrote %s (%d entries)\n" file (List.length es)
    | None -> print_string (Obs.Journal.to_jsonl es));
    let dropped = Obs.Journal.dropped () in
    if dropped > 0 then
      Printf.eprintf "journal: ring wrapped, %d oldest entries dropped\n%!" dropped
  in
  let kind_arg =
    Arg.(
      value & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Only entries of $(docv) (exact, or a dotted prefix: \
             $(b,flow) matches $(b,flow.validate), ...).")
  in
  let limit_arg =
    Arg.(
      value & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Only the newest $(docv) entries.")
  in
  let tokens_arg =
    Arg.(
      value & flag
      & info [ "tokens" ]
          ~doc:
            "Also enable causal token tracing, so per-channel high-water marks \
             land in the journal.")
  in
  command "journal"
    ~doc:
      "Run the flow and the SDF executor, then replay the bounded run journal \
       (phase starts, executor rounds, channel high-water marks, deadlocks) as \
       JSON Lines"
    Term.(
      const action $ uml_arg $ strategy_term $ rounds_arg $ kind_arg $ limit_arg
      $ tokens_arg $ out_arg)

let bench_diff_cmd =
  let action base current tolerance () =
    let parse p =
      let text = In_channel.with_open_bin p In_channel.input_all in
      match Obs.Json.parse text with
      | Ok v -> v
      | Error e -> failwith (Printf.sprintf "%s: %s" p e)
    in
    match
      Obs.Bench_diff.compare_docs ~tolerance ~base:(parse base)
        ~current:(parse current) ()
    with
    | Error e -> failwith e
    | Ok findings ->
        Printf.printf "bench-diff %s vs %s\n" base current;
        print_string (Obs.Bench_diff.render ~tolerance findings);
        if Obs.Bench_diff.regressions findings <> [] then exit 1
  in
  let base_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"BASE.json" ~doc:"Baseline BENCH_*.json (committed).")
  in
  let current_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Freshly measured BENCH_*.json.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float Obs.Bench_diff.default_tolerance
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed movement in the bad direction, percent; beyond it the \
             metric is a regression and the exit code is 1.")
  in
  command "bench-diff"
    ~doc:
      "Compare two bench result files of one schema (BENCH_obs.json, \
       BENCH_parallel.json or BENCH_exec_compiled.json) and exit non-zero \
       when a throughput metric regressed beyond the tolerance"
    Term.(const action $ base_arg $ current_arg $ tolerance_arg)

let lint_cmd =
  let module A = Umlfront_analysis in
  let action paths strategy jobs format deny_warnings show_rules () =
    if show_rules then
      List.iter
        (fun (code, severity, title) ->
          Printf.printf "%s  %-7s  %s\n" code
            (A.Diagnostic.severity_to_string severity)
            title)
        A.Lint.rules
    else if paths = [] then failwith "lint: no MODEL.xml given (or pass --rules)"
    else begin
      let lint_one path =
        let uml = load path in
        (path, Api.lint uml (Api.caam { Api.default_options with strategy } uml))
      in
      let results =
        with_jobs jobs (fun pool ->
            match pool with
            | Some pool -> Pool.map pool lint_one paths
            | None -> List.map lint_one paths)
      in
      (match format with
      | `Text ->
          List.iter
            (fun (path, diagnostics) ->
              if diagnostics = [] then Printf.printf "%s: clean\n" path
              else (
                Printf.printf "%s:\n" path;
                print_string (A.Diagnostic.render diagnostics)))
            results
      | `Json ->
          print_string
            (Api.lint_json (List.map (fun (path, ds) -> (Some path, ds)) results)));
      let policy = if deny_warnings then `Warnings else `Errors in
      if List.exists (fun (_, ds) -> A.Lint.deny policy ds <> []) results then exit 1
    end
  in
  let models_arg =
    let doc = "UML models in umlfront XMI format (one or more)." in
    Arg.(value & pos_all file [] & info [] ~docv:"MODEL.xml" ~doc)
  in
  let deny_arg =
    (* `--deny warnings`: warnings fail the run like errors do. *)
    let level =
      Arg.(
        value
        & opt (some (enum [ ("warnings", `Warnings) ])) None
        & info [ "deny" ] ~docv:"LEVEL"
            ~doc:"Fail the run on diagnostics of $(docv) too (only $(b,warnings)).")
    in
    Term.(const (fun l -> l <> None) $ level)
  in
  let rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"Print the rule catalog (code, severity, title) and exit.")
  in
  command "lint"
    ~doc:
      "Run the static model analysis (UML conventions, CAAM structure, SDF \
       consistency) and exit non-zero on errors"
    Term.(
      const action $ models_arg $ strategy_term $ jobs_arg $ report_format_arg
      $ deny_arg $ rules_arg)

let conform_cmd =
  let action path backends engine rounds strategy jobs format () =
    let opts =
      { Api.default_options with strategy; rounds; engine; engine_given = true; backends }
    in
    (* A .mdl input is checked as-is — that is how a fuzz-corpus
       minimized counterexample reproduces faithfully, without the
       flow resynthesizing anything. *)
    let caam =
      if Filename.check_suffix path ".mdl" then
        Umlfront_simulink.Mdl_parser.parse_file path
      else Api.caam opts (load path)
    in
    let report = with_jobs jobs (fun pool -> Api.conform ?pool opts caam) in
    (match format with
    | `Text -> print_string (Conf.render report)
    | `Json -> print_string (Api.conform_json report));
    if not (Conf.agree report) then exit 1
  in
  let model_arg =
    let doc = "UML model (XMI) or Simulink CAAM ($(b,.mdl))." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc)
  in
  command "conform"
    ~doc:
      "Differential conformance check: run the model through every backend \
       (sequential, compiled, KPN, generated C, emitted KPN source) \
       and diff the traces against the SDF reference executor; exit non-zero \
       on disagreement"
    Term.(
      const action $ model_arg $ backends_arg $ reference_engine_arg $ rounds_arg
      $ strategy_term
      $ compiled_jobs_arg $ report_format_arg)

let serve_cmd =
  let module Server = Umlfront_serve.Server in
  let action port pool cache_mb max_inflight timeout access_log trace_sample () =
    if trace_sample < 0. || trace_sample > 1. then
      failwith "serve: --trace-sample must be within 0..1";
    let config =
      {
        Server.default_config with
        Server.port;
        pool;
        cache_mb;
        max_inflight;
        timeout_s = timeout;
        access_log;
        trace_sample;
      }
    in
    let server = Server.start ~config () in
    (* The bound port on stdout first, so `--port 0` scripts can read
       it; everything after is human chatter. *)
    Printf.printf "listening on http://127.0.0.1:%d\n%!" (Server.port server);
    Printf.eprintf
      "serve: %d worker domain(s), %d MiB cache, %d in-flight max, %gs \
       timeout; Ctrl-C to stop\n\
       %!"
      pool cache_mb max_inflight timeout;
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      try Unix.sleepf 0.2
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.eprintf "serve: shutting down\n%!";
    Server.stop server
  in
  let port_arg =
    let doc = "Port to listen on (0 picks an ephemeral port, printed on stdout)." in
    Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let pool_arg =
    let doc =
      "Worker domains handling requests, the daemon's only domains besides \
       the main one, whose threads accept connections and write the access \
       log (0 serves on the acceptor thread)."
    in
    Arg.(value & opt int 2 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc =
      "Response cache budget in MiB: cached responses plus the request bodies \
       that filled them (0 disables caching)."
    in
    Arg.(value & opt int 32 & info [ "cache-mb" ] ~docv:"N" ~doc)
  in
  let inflight_arg =
    let doc =
      "Admission-control bound: beyond $(docv) open connections the server \
       answers 503 with Retry-After."
    in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Per-request compute deadline in seconds (503 beyond it)." in
    Arg.(value & opt float 30. & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per request to $(docv) (written off the request \
       path; a full writer queue drops lines and counts them)."
    in
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Fraction of requests (0..1) whose span tree is retained for \
       /api/trace/ID; ?trace=1 retains regardless."
    in
    Arg.(value & opt float 0. & info [ "trace-sample" ] ~docv:"RATE" ~doc)
  in
  command "serve"
    ~doc:
      "Long-lived compilation service: the whole flow as JSON-over-HTTP \
       endpoints (/api/lint, /api/transform, /api/simulate, /api/conform, \
       /api/generate/{c,java,kpn}) with a content-hash response cache, \
       admission control and OpenMetrics telemetry on /metrics"
    Term.(
      const action $ port_arg $ pool_arg $ cache_arg $ inflight_arg $ timeout_arg
      $ access_log_arg $ trace_sample_arg)

let fuzz_cmd =
  let module Fuzz = Umlfront_conformance.Fuzz in
  let action seed count backends engine rounds shrink corpus () =
    let progress (c : Fuzz.case) =
      let verdict =
        match Conf.disagreements c.Fuzz.report with
        | [] -> "agree"
        | ds ->
            "DISAGREE: "
            ^ String.concat ", " (List.map (fun (b, _) -> Conf.backend_name b) ds)
      in
      Printf.printf "case %3d  %-10s  seed %-8d  %s\n%!" c.Fuzz.index c.Fuzz.shape
        c.Fuzz.case_seed verdict
    in
    let outcome =
      Fuzz.run ?backends ~engine ~rounds ~shrink ~corpus ~progress ~seed ~count ()
    in
    Printf.printf "checked %d model(s), skipped %d, %d disagreement(s)\n"
      outcome.Fuzz.checked outcome.Fuzz.skipped
      (List.length outcome.Fuzz.failures);
    List.iter
      (fun (f : Fuzz.counterexample) ->
        let c = f.Fuzz.case in
        (match f.Fuzz.shrink_stats with
        | Some (s : Umlfront_conformance.Shrink.stats) ->
            Printf.printf "  %s (%s): shrunk %d -> %d blocks in %d attempts\n"
              c.Fuzz.report.Conf.model_name c.Fuzz.shape s.Umlfront_conformance.Shrink.initial_blocks
              s.Umlfront_conformance.Shrink.final_blocks
              s.Umlfront_conformance.Shrink.attempts
        | None ->
            Printf.printf "  %s (%s): shrinking disabled\n"
              c.Fuzz.report.Conf.model_name c.Fuzz.shape);
        Option.iter (Printf.printf "  counterexample written to %s\n") f.Fuzz.corpus_dir)
      outcome.Fuzz.failures;
    if outcome.Fuzz.failures <> [] then exit 1
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed for model generation.")
  in
  let count_arg =
    Arg.(
      value & opt int 25
      & info [ "count" ] ~docv:"N" ~doc:"Number of random models to check.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize each counterexample by greedy deletion before writing it.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory for counterexample artifacts (XMI, .mdl, repro commands).")
  in
  command "fuzz"
    ~doc:
      "Conformance-fuzz the backends: generate random UML models (pipelines, \
       scatter/gather, cyclic, multi-CPU, multi-rate), check every backend \
       against the reference executor, shrink and record any counterexample; \
       exit non-zero on disagreement"
    Term.(
      const action $ seed_arg $ count_arg $ backends_arg $ reference_engine_arg $ rounds_arg
      $ shrink_arg $ corpus_arg)

let () =
  (* -v/--verbose (repeatable) turns on Logs reporting to stderr. *)
  let verbosity =
    Array.fold_left
      (fun acc arg ->
        match arg with "-v" | "--verbose" -> acc + 1 | _ -> acc)
      0 Sys.argv
  in
  if verbosity > 0 then (
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbosity > 1 then Logs.Debug else Logs.Info)));
  let args =
    List.filter (fun a -> a <> "-v" && a <> "--verbose") (Array.to_list Sys.argv)
  in
  (* Global --profile FILE.json / --journal FILE.jsonl: strip the flag
     anywhere on the command line, arm an at_exit dump.  [strip_global]
     handles both the split ("--flag FILE") and joined ("--flag=FILE")
     spellings, matching Cmdliner's own error shape (message + help
     pointer, exit 124) when the argument is missing. *)
  let strip_global flag args =
    let prefix = flag ^ "=" in
    let rec strip acc value = function
      | [] -> (List.rev acc, value)
      | [ f ] when String.equal f flag ->
          Printf.eprintf "umlfront: option '%s' needs an argument\n" flag;
          prerr_endline "Try 'umlfront --help' for more information.";
          exit 124
      | f :: file :: rest when String.equal f flag -> strip acc (Some file) rest
      | arg :: rest when String.starts_with ~prefix arg ->
          strip acc
            (Some (String.sub arg (String.length prefix) (String.length arg - String.length prefix)))
            rest
      | arg :: rest -> strip (arg :: acc) value rest
    in
    strip [] None args
  in
  let args, profile = strip_global "--profile" args in
  let args, journal = strip_global "--journal" args in
  Option.iter
    (fun file ->
      Obs.Trace.enable ();
      at_exit (fun () ->
          try
            Obs.Trace.write ~metrics:(Obs.Metrics.snapshot ()) file;
            Printf.eprintf "profile: wrote %s (%d events)\n%!" file
              (List.length (Obs.Trace.events ()))
          with Sys_error m -> Printf.eprintf "profile: cannot write trace: %s\n%!" m))
    profile;
  Option.iter
    (fun file ->
      at_exit (fun () ->
          try
            Obs.Journal.write file;
            Printf.eprintf "journal: wrote %s (%d entries)\n%!" file
              (List.length (Obs.Journal.entries ()))
          with Sys_error m -> Printf.eprintf "journal: cannot write: %s\n%!" m))
    journal;
  let argv = Array.of_list args in
  let info =
    Cmd.info "umlfront" ~version:"1.0.0"
      ~doc:"UML front-end for heterogeneous software code generation"
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            map_cmd; allocate_cmd; simulate_cmd; codegen_cmd; fsm_cmd; dse_cmd;
            partition_cmd; capture_cmd; example_cmd; audit_cmd; cosim_cmd;
            plantuml_cmd; report_cmd; stats_cmd; journal_cmd; bench_diff_cmd;
            lint_cmd; conform_cmd; fuzz_cmd; serve_cmd;
          ]))
