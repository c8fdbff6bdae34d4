module F = Umlfront_fsm

type generated = {
  fsm : F.Fsm.t;
  minimized : F.Fsm.t;
  c_header : string;
  c_source : string;
  dot : string;
}

let run_one chart =
  let fsm = F.Flatten.run chart in
  let minimized = F.Minimize.run fsm in
  {
    fsm;
    minimized;
    c_header = F.Codegen_c.header minimized;
    c_source = F.Codegen_c.source minimized;
    dot = F.Dot.to_string minimized;
  }

let run (uml : Umlfront_uml.Model.t) =
  List.map
    (fun (chart : Umlfront_uml.Statechart.t) ->
      (chart.Umlfront_uml.Statechart.sc_name, run_one chart))
    uml.Umlfront_uml.Model.statecharts
