(** Kahn-process-network code generation — the remaining §3 mapping
    target ("the proposed transformation approach can be extended to
    support mappings to other languages, such as ... KPN").

    Emits a self-contained OCaml source file that reconstructs the
    flattened CAAM as a process network over
    [Umlfront_dataflow.Kpn]: one process per actor, one channel per
    edge, UnitDelays primed with their initial conditions.  The
    embedded [.mdl] text is of the laid-out model
    ({!Umlfront_simulink.Layout.run} overwrites positions), so a model
    with or without positions gives the same source.  The tests check
    the emitted program names every actor and channel and that its
    in-memory equivalent ([Kpn.of_sdf]) reproduces the reference
    executor. *)

val generate : ?rounds:int -> Umlfront_simulink.Model.t -> string
