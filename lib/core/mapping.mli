(** The UML → Simulink CAAM mapping of paper §4.1 (steps 2–3 of
    Fig. 2, before the optimization passes).

    Rules implemented:
    - each [<<SAengine>>] processor becomes a {e CPU-SS} subsystem,
      each [<<SASchedRes>>] thread a {e Thread-SS} inside its CPU;
    - a method call from a thread to a {e passive} object becomes an
      S-Function block (FunctionName = operation);
    - a call to the special {e Platform} object instantiates the
      predefined library block of the same name
      ({!Umlfront_simulink.Library}), falling back to an S-Function;
    - [In] arguments and the return value become block input/output
      ports; reusing a data token connects the producing port to the
      consuming port with a data link;
    - [Set]/[Get] calls between threads become Thread-SS boundary
      ports plus an inter-thread link (channelized later by
      {!Channel_inference});
    - [get*]/[set*] calls on [<<IO>>] objects become system-level
      input/output ports routed through the hierarchy.

    The allocation of threads to CPUs comes either from the UML
    deployment diagram or from {!Allocation} (§4.2.3). *)

type result = {
  model : Umlfront_simulink.Model.t;
  trace : Umlfront_metamodel.Trace.t;
      (** rule-tagged links from UML element names to block paths *)
  cross_links : int;  (** inter-thread data links awaiting channels *)
}

val run : allocation:(string * string) list -> Umlfront_uml.Model.t -> result
(** [allocation] maps every thread to a CPU name.  The model is expected
    to pass {!Umlfront_uml.Validate.check}: the flow raises the first
    issue in its map phase, before it calls this.
    @raise Invalid_argument when a thread is missing from the
    allocation. *)
