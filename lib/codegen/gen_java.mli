(** Multithreaded Java generation from a CAAM — the paper's "generate
    multithreaded code for other languages, e.g. Java" fallback
    (Fig. 1).  A dialect of the emitter behind {!Gen_threads}: the same
    workers, queues, identifiers and rounds, with one static method per
    Thread-SS and [ArrayBlockingQueue<Double>] standing in for the FIFO
    runtime.  The program prints the same samples as
    {!Umlfront_dataflow.Exec.run}; the tests compile and run it. *)

val generate : ?rounds:int -> ?class_name:string -> Umlfront_simulink.Model.t -> string
(** One self-contained Java source file. *)
