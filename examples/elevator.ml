(* Elevator: the heterogeneous system the paper's introduction argues
   for.  One UML model, two code generation strategies:

   - the event-based mode controller (a hierarchical statechart) takes
     the control-flow branch of Fig. 1: flattening, minimization, and
     switch-based C from the FSM generator — once through the typed
     pipeline (Uml2fsm) and once through the generic rule engine over
     explicit metamodels (M2m), with the two results compared;

   - the cabin position loop (threads described by *activity diagrams*,
     the §6 extension) takes the dataflow branch: allocation is chosen
     by design-space exploration (the other §6 extension), the CAAM is
     generated, executed, and emitted as .mdl, E-core XML, C and
     SystemC. *)

module U = Umlfront_uml
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow
module Codegen = Umlfront_codegen
module Fsm = Umlfront_fsm.Fsm
module Cosim = Umlfront_cosim.Cosim
module Elevator = Umlfront_casestudies.Elevator_system

let () =
  let uml = Elevator.model () in
  print_endline "=== Elevator UML model (activities + statechart) ===";
  Format.printf "%a@." U.Model.pp uml;

  print_endline "=== Control-flow branch: statechart -> FSM -> C ===";
  let typed = Core.Uml2fsm.run uml in
  let generic = Core.M2m.run uml in
  List.iter
    (fun (name, (g : Core.Uml2fsm.generated)) ->
      Printf.printf "  %s: %d states flattened, %d after minimization\n" name
        (List.length g.Core.Uml2fsm.fsm.Fsm.states)
        (List.length g.Core.Uml2fsm.minimized.Fsm.states);
      let via_engine = List.assoc name generic in
      let traces =
        [ [ "call_above"; "arrived"; "timeout" ]; [ "call_below"; "reverse"; "arrived" ] ]
      in
      Printf.printf "  generic-engine result behaves identically: %b\n"
        (Fsm.simulate_equal g.Core.Uml2fsm.fsm via_engine traces);
      Printf.printf "  C header: %d lines, C source: %d lines\n"
        (List.length (String.split_on_char '\n' g.Core.Uml2fsm.c_header))
        (List.length (String.split_on_char '\n' g.Core.Uml2fsm.c_source)))
    typed;

  print_endline "=== Dataflow branch: design-space exploration (§6) ===";
  let dse = Core.Dse.explore uml in
  print_string (Core.Dse.summary dse);
  let cpus = dse.Core.Dse.best.Core.Dse.cpus in
  Printf.printf "  chosen platform: %d CPU(s)\n" cpus;

  let out = Core.Flow.run ~strategy:(Core.Flow.Infer_bounded cpus) uml in
  print_endline "=== Generated CAAM (activity-diagram threads) ===";
  print_string (Core.Report.flow_summary out);
  print_string (Core.Report.caam_tree out.Core.Flow.caam);

  print_endline "=== Execution + schedule ===";
  let sdf = Dataflow.Sdf.of_model out.Core.Flow.caam in
  let outcome = Dataflow.Exec.run ~rounds:10 sdf in
  List.iter
    (fun (port, samples) ->
      Printf.printf "%s:" port;
      Array.iter (fun v -> Printf.printf " %.4f" v) samples;
      print_newline ())
    outcome.Dataflow.Exec.traces;
  print_string (Dataflow.Trace_export.gantt sdf);

  print_endline "=== Emitted artifacts ===";
  let mdl_lines = List.length (String.split_on_char '\n' out.Core.Flow.mdl) in
  let ecore_lines =
    List.length (String.split_on_char '\n' (Core.Flow.ecore_xml out))
  in
  let c_files = (Codegen.Gen_threads.generate out.Core.Flow.caam).Codegen.Gen_threads.files in
  let sc = Codegen.Gen_systemc.generate out.Core.Flow.caam in
  Printf.printf "  model.mdl        %4d lines\n" mdl_lines;
  Printf.printf "  model.ecore.xml  %4d lines\n" ecore_lines;
  List.iter
    (fun (name, content) ->
      Printf.printf "  %-16s %4d lines\n" name
        (List.length (String.split_on_char '\n' content)))
    c_files;
  Printf.printf "  model_sc.cpp     %4d lines (SystemC)\n"
    (List.length (String.split_on_char '\n' sc));

  (* The two branches, co-simulated: the mode FSM supervises the
     dataflow cabin loop through a simple shaft environment (the
     integration strategy the paper's related work compares against). *)
  print_endline "=== Co-simulation: mode FSM x dataflow loop ===";
  let mode_fsm = Umlfront_fsm.Flatten.run Elevator.mode_chart in
  let cfg =
    {
      Cosim.controller = mode_fsm;
      watchers =
        [
          Cosim.watcher ~event:"call_above" "call > 0";
          Cosim.watcher ~event:"arrived" "Height > 8";
          Cosim.watcher ~event:"timeout" "door_timer > 3";
        ];
      setters =
        [
          Cosim.setter ~action:"motor_on" ~var:"powered" "1";
          Cosim.setter ~action:"motor_off" ~var:"powered" "0";
          Cosim.setter ~action:"doors_open" ~var:"door" "1";
          Cosim.setter ~action:"doors_close" ~var:"door" "0";
        ];
      updates =
        [
          Cosim.update ~var:"Height" "Height + 0.6 * powered";
          Cosim.update ~var:"door_timer" "(door_timer + 1) * door";
        ];
      initial_store =
        [ ("call", 1.0); ("powered", 0.0); ("Height", 0.0); ("door", 0.0);
          ("door_timer", 0.0) ];
    }
  in
  let outcome = Cosim.run ~rounds:30 sdf cfg in
  List.iter
    (fun (s : Cosim.step) ->
      if s.Cosim.events <> [] then Format.printf "  %a@." Cosim.pp_step s)
    outcome.Cosim.steps;
  Printf.printf "  final mode: %s, cabin height %.1f\n" outcome.Cosim.final_state
    (Option.value (List.assoc_opt "Height" outcome.Cosim.final_store) ~default:0.0)
