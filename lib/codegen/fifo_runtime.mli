(** The C FIFO runtime the generated multithreaded code links against:
    a bounded ring buffer guarded by a pthread mutex/condvar.  SWFIFO
    (intra-CPU) and GFIFO (inter-CPU, bus) share the implementation but
    keep distinct constructors so the protocol choice stays visible in
    the generated code, as in the CAAM. *)

val header : string
(** Contents of [fifo.h]. *)

val source : string
(** Contents of [fifo.c]. *)
