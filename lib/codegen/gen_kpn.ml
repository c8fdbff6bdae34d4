module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module Kpn = Umlfront_dataflow.Kpn
module M2t = Umlfront_transform.M2t

let generate ?(rounds = 10) (m : Model.t) =
  let sdf = Sdf.of_model m in
  let t = M2t.create () in
  M2t.line t "(* Kahn process network generated from CAAM model %s." m.Model.model_name;
  M2t.line t "   One process per actor, one unbounded FIFO per dataflow edge;";
  M2t.line t "   UnitDelay processes prime their channels with the initial";
  M2t.line t "   condition, the KPN analogue of the temporal barrier. *)";
  M2t.blank t;
  M2t.line t "module Kpn = Umlfront_dataflow.Kpn";
  M2t.line t "module Sdf = Umlfront_dataflow.Sdf";
  M2t.line t "module Mdl = Umlfront_simulink.Mdl_parser";
  M2t.blank t;
  M2t.line t "let rounds = %d" rounds;
  M2t.blank t;
  M2t.line t "(* Channel names, one per edge of the flattened model: *)";
  List.iter
    (fun (e : Sdf.edge) ->
      M2t.line t "let ch_%s_%s = %S" (M2t.sanitize e.Sdf.edge_src)
        (M2t.sanitize e.Sdf.edge_dst)
        (Kpn.channel_name e))
    sdf.Sdf.edges;
  M2t.blank t;
  M2t.line t "(* The embedded model, reparsed at runtime: *)";
  M2t.line t "let mdl_text = {mdl|%s|mdl}"
    (Umlfront_simulink.Mdl_writer.to_string (Umlfront_simulink.Layout.run m));
  M2t.blank t;
  M2t.line t "let network () =";
  M2t.indented t (fun () ->
      M2t.line t "let model = Mdl.parse_string mdl_text in";
      M2t.line t "Kpn.of_sdf ~rounds (Sdf.of_model model)";
      ());
  M2t.blank t;
  M2t.line t "let () =";
  M2t.indented t (fun () ->
      M2t.line t "let outcome = Kpn.run (network ()) in";
      M2t.line t "List.iter";
      M2t.line t "  (fun (name, value) -> Printf.printf \"%%s %%.9f\\n\" name value)";
      M2t.line t "  (List.filter";
      M2t.line t "     (fun (name, _) ->";
      M2t.line t "       List.mem name";
      M2t.line t "         [%s])"
        (String.concat "; " (List.map (Printf.sprintf "%S") sdf.Sdf.graph_outputs));
      M2t.line t "     outcome.Kpn.results)");
  M2t.contents t
