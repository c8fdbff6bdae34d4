(** Design-space exploration — the estimation step the paper's future
    work calls for (§6): sweep the number of processors, run the whole
    synthesis flow for each candidate platform, estimate performance
    with the MPSoC timing model, and report the Pareto frontier of
    (CPU count, makespan), so the designer no longer has to fix the
    deployment by hand. *)

type candidate = {
  cpus : int;
  allocation : (string * string) list;
  makespan : float;  (** per-iteration latency *)
  period : float;  (** steady-state throughput bound *)
  speedup : float;
  comm_cost : float;
  inter_tokens : int;
  intra_tokens : int;
  delays_inserted : int;
}

type result = {
  candidates : candidate list;  (** one per CPU count, ascending *)
  best : candidate;  (** minimal makespan, ties broken by fewer CPUs *)
  pareto : candidate list;
      (** candidates not dominated in (cpus, makespan), ascending CPU count *)
}

val explore :
  ?max_cpus:int ->
  ?pool:Umlfront_parallel.Pool.t ->
  Umlfront_uml.Model.t ->
  result
(** [max_cpus] defaults to the thread count (the finest platform linear
    clustering can use).  When [pool] is a real (size > 1) domain pool,
    the per-platform synthesis + timing evaluations run concurrently
    across it; the result is bit-identical to the sequential sweep.
    Telemetry goes to the current {!Umlfront_obs.Context}.
    @raise Invalid_argument on a model without threads. *)

val summary : result -> string
(** A printable sweep table. *)
