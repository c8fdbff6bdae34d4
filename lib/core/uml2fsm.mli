(** The control-flow branch of the design flow (Fig. 1): UML state
    diagrams are mapped to flat FSMs and handed to an FSM code
    generator, the path event-based subsystems take instead of the
    Simulink one. *)

type generated = {
  fsm : Umlfront_fsm.Fsm.t;
  minimized : Umlfront_fsm.Fsm.t;
  c_header : string;
  c_source : string;
  dot : string;
}

val run_one : Umlfront_uml.Statechart.t -> generated
(** Flatten, minimize, and generate C + Graphviz from the minimized
    FSM. *)

val run : Umlfront_uml.Model.t -> (string * generated) list
(** One entry per statechart in the model. *)
