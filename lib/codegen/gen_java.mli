(** Multithreaded Java generation from a CAAM — the paper's "generate
    multithreaded code for other languages, e.g. Java" fallback
    (Fig. 1).  Same thread/FIFO structure as {!Gen_threads}, with
    [ArrayBlockingQueue<Double>] standing in for the FIFO runtime. *)

val generate : ?rounds:int -> ?class_name:string -> Umlfront_simulink.Model.t -> string
(** One self-contained Java source file. *)
