(* Crane control system case study (paper §5.1, after Moser & Nebel's
   DATE'99 crane model).

   Three threads on one processor:
   - Tsensor  samples the crane position from an <<IO>> device;
   - Tcontrol runs the feedback controller.  Its sequence diagram has a
     data cycle (the control command feeds back into the error
     computation), so the tool must insert a temporal barrier — the
     "Delay inserted" of paper Fig. 5;
   - Tactuator drives the motor through a system output port.

   The run prints the generated model for Tcontrol (one S-function, two
   library blocks standing for the paper's two subsystems, and the
   automatically inserted UnitDelay), then executes the CAAM. *)

module U = Umlfront_uml
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow

let () =
  let uml = Umlfront_casestudies.Crane_system.model () in
  print_endline "=== Crane UML model ===";
  Format.printf "%a@." U.Model.pp uml;
  let output = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
  print_endline "=== Flow summary (note the inserted temporal barrier) ===";
  print_string (Core.Report.flow_summary output);
  print_endline "=== Generated model, Tcontrol (paper Fig. 5) ===";
  print_string (Core.Report.caam_tree output.Core.Flow.caam);
  print_endline "=== SDF execution: the loop now runs deadlock-free ===";
  let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
  let outcome = Dataflow.Exec.run ~rounds:12 sdf in
  List.iter
    (fun (port, samples) ->
      Printf.printf "%s:" port;
      Array.iter (fun v -> Printf.printf " %.4f" v) samples;
      print_newline ())
    outcome.Dataflow.Exec.traces;
  print_endline "=== Generated multithreaded C (file inventory) ===";
  let generated = Umlfront_codegen.Gen_threads.generate ~rounds:12 output.Core.Flow.caam in
  List.iter
    (fun (name, content) ->
      Printf.printf "  %-14s %4d lines\n" name
        (List.length (String.split_on_char '\n' content)))
    generated.Umlfront_codegen.Gen_threads.files
