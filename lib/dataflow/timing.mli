(** MPSoC timing model over a flattened CAAM: estimates one iteration's
    schedule when each CPU-SS runs on its own processor and
    communication costs depend on the channel protocol — the basis for
    the paper's claim that clustering threads with heavy data
    dependencies onto one CPU reduces communication cost (§4.2.3). *)

type cost_model = {
  default_actor_cost : float;  (** used when a block has no [Cost] param *)
  wire_cost : float;  (** same-thread data hand-off *)
  swfifo_cost : float;  (** intra-CPU channel, per token *)
  gfifo_cost : float;  (** inter-CPU (bus) channel, per token *)
  bus_serialized : bool;
      (** when true (default), inter-CPU transfers contend for the one
          shared bus of the paper's platform (Fig. 3a): each GFIFO
          token occupies the bus exclusively for [gfifo_cost] *)
}

val default_cost_model : cost_model
(** wire 0, SWFIFO 2, GFIFO 10 — intra much cheaper than inter, as the
    paper assumes. *)

type slot = {
  actor : string;
  cpu : string option;  (** [None] for the environment's ports *)
  thread : string option;
  start : float;
  finish : float;
}

type report = {
  makespan : float;  (** one iteration: latency *)
  period : float;
      (** steady-state initiation interval with perfect pipelining
          across iterations: the busiest CPU's total work (the
          throughput bound of a streaming MPSoC) *)
  sequential : float;  (** sum of actor costs: 1-CPU, zero-comm bound *)
  speedup : float;
  cpu_busy : (string * float) list;
  intra_tokens : int;  (** tokens crossing SWFIFO channels per iteration *)
  inter_tokens : int;
  comm_cost : float;  (** total communication latency charged *)
  bus_busy : float;  (** time the shared bus spends transferring *)
  schedule : slot list;
      (** every actor's slot in the list schedule, in firing order; the
          latest [finish] is the [makespan] *)
}

val evaluate : ?model:cost_model -> Sdf.t -> report
(** @raise Exec.Deadlock on a zero-delay cycle. *)

val pp_report : Format.formatter -> report -> unit
