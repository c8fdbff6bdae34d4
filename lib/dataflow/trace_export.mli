(** Export of simulation results for downstream plotting/inspection. *)

val traces_csv : Exec.outcome -> string
(** One row per round, one column per top-level output port:
    [round,portA,portB,...]. *)

val schedule_csv : Sdf.t -> string
(** The CPU slots of {!Timing.evaluate}'s schedule:
    [actor,cpu,thread,start,finish]. *)

val chrome_json : Sdf.t -> string
(** The timing model's schedule as Chrome trace-event JSON (one pid
    per CPU, actors as Complete events, plus a flow-event pair per SDF
    edge so token hand-offs render as arrows across CPU lanes) — open
    in chrome://tracing or Perfetto, next to a runtime profile from
    {!Umlfront_obs.Trace}.  Deterministic: derived entirely from the
    static timing model. *)

val gantt : ?width:int -> Sdf.t -> string
(** ASCII Gantt chart of one iteration per CPU, from
    {!Timing.evaluate}'s schedule — a quick visual for reports. *)
