(** Multithreaded C code generation from a Simulink CAAM — the software
    side of the MPSoC backend the paper's flow feeds (and the fallback
    path of Fig. 1 "in case a Simulink compiler is not available").

    One POSIX thread per Thread-SS; every dataflow edge crossing a
    thread boundary becomes a FIFO of the protocol the channel
    inference chose (SWFIFO / GFIFO); UnitDelay blocks become static
    state pushed at round start, so cyclic models run without
    deadlock.  {!Gen_java} and {!Gen_systemc} are dialects of the same
    emitter: one thread program, different syntax and file frame.  Unknown S-Functions get a generated default body with
    the {e same} affine behaviour the OCaml SDF executor uses, so the C
    program and {!Umlfront_dataflow.Exec} produce identical traces —
    the integration tests compile and diff them. *)

type generated = { files : (string * string) list }
(** (file name, content): [model.c], [sfunctions.h], [sfunctions.c],
    plus the FIFO runtime. *)

val generate : ?rounds:int -> Umlfront_simulink.Model.t -> generated
(** Actors, S-Functions and worker threads are named through one
    {!Umlfront_transform.M2t.make_namer} namespace each, so block paths
    that sanitize alike still produce compilable C.
    @raise Umlfront_dataflow.Exec.Deadlock on a zero-delay cycle. *)

val save : ?rounds:int -> Umlfront_simulink.Model.t -> dir:string -> unit
