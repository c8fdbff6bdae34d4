(** Random UML workloads, deterministic in their seed — used by the
    property tests and the benchmark sweeps, and available to users for
    fuzzing their own passes. *)

val pipeline : seed:int -> threads:int -> extra_edges:int -> Umlfront_uml.Model.t
(** A multi-threaded dataflow application in the synthetic-example
    style: a spanning chain of threads plus random forward edges, each
    thread doing local work, packing and [Set]-ting its products; one
    IO read at the source, one IO write at the sink.  Always
    well-formed ({!Umlfront_uml.Validate}). *)

val wide : seed:int -> branches:int -> depth:int -> Umlfront_uml.Model.t
(** A scatter/gather application: a source thread fans out to
    [branches] independent chains of [depth] threads each, gathered by
    a sink — [2 + branches * depth] threads total.  Its SDF dependency
    levels are [branches] wide, which bounds the parallelism the
    compiled executor's work-stealing engine can use; the narrow
    {!pipeline} shape is the adversarial case.  Always well-formed. *)

val monolithic : seed:int -> calls:int -> Umlfront_uml.Model.t
(** A single-threaded model (one thread, a chain of functional calls
    with random fan-in over earlier tokens) — the input shape of the
    automatic partitioner. *)

val cyclic : seed:int -> stages:int -> Umlfront_uml.Model.t
(** A crane-style control loop: the controller thread subtracts the
    {e previous} command from the measurement (a use-before-def token),
    forcing the §4.2.2 loop breaker to insert a UnitDelay, followed by
    a randomized tail of [stages] post-controller threads.  Always
    well-formed. *)

val multi_cpu :
  seed:int -> threads:int -> cpus:int -> extra_edges:int -> Umlfront_uml.Model.t
(** {!pipeline} plus a deployment diagram: [cpus] CPUs with the threads
    allocated round-robin, so synthesis under [Use_deployment] (or the
    default) exercises the inter-CPU GFIFO channels. *)

val chatty : seed:int -> threads:int -> width:int -> Umlfront_uml.Model.t
(** A multi-rate chain: each consecutive thread pair exchanges a random
    number (1..[width]) of parallel tokens over separate [Set] channels,
    and the consumer fuses them all — multiple parallel SDF edges
    between the same pair of actors.  Always well-formed. *)
