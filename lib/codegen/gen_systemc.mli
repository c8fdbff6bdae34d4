(** SystemC code generation from a CAAM: one [SC_MODULE] per Thread-SS
    with an [SC_THREAD] process, [sc_fifo<double>] channels for the
    inferred SWFIFO/GFIFO links, and a top-level module instantiating
    the platform — the ESL flavour of the multithreaded backend (the
    paper positions UML/Simulink within ESL design, refs [5,14]).  A
    dialect of the emitter behind {!Gen_threads}: the module bodies are
    the same worker and environment rounds as the C threads.

    The output is self-contained C++ against the standard SystemC 2.3
    API; it is emitted for inspection and downstream use, not compiled
    here (the container has no SystemC installation). *)

val generate : ?rounds:int -> Umlfront_simulink.Model.t -> string
(** One [main.cpp]-style translation unit. *)
