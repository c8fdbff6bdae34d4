(** Kahn process networks: the other dataflow MoC the paper names as a
    mapping target ("the proposed transformation approach can be
    extended to support mappings to other languages, such as ... KPN",
    §3).

    Processes are written in a resumption style: each step either reads
    a channel (blocking), writes a channel (unbounded FIFO, never
    blocks), or terminates.  The scheduler runs processes round-robin;
    if every live process is blocked on an empty channel, the network
    is deadlocked. *)

type 'a process =
  | Read of string * (float -> 'a process)
  | Write of string * float * (unit -> 'a process)
  | Done of 'a

type outcome = {
  results : (string * float) list;  (** per terminated process *)
  channel_residue : (string * int) list;  (** tokens left per channel *)
  steps : int;
}

exception Deadlock of string list
(** Names of the processes blocked when no progress was possible,
    sorted — deterministic regardless of scheduling order. *)

exception Out_of_fuel

val run : ?fuel:int -> (string * float process) list -> outcome
(** [fuel] bounds total scheduler steps (default 100_000); exceeding it
    raises {!Out_of_fuel} (e.g. a livelocked network).

    Deadlock victims are recorded in the {!Umlfront_obs.Journal}; when
    {!Umlfront_obs.Telemetry} is enabled every token push/pop is traced
    with its producing process and write index.  Both land in the
    current {!Umlfront_obs.Context}.

    @raise Deadlock when every unfinished process blocks on an empty
    read. *)

(** {1 Combinators} *)

val producer : out:string -> float list -> float process
(** Writes the samples in order, then finishes with the last value (0
    when empty). *)

val consumer : inp:string -> n:int -> float process
(** Reads [n] tokens, finishes with their sum. *)

val map1 : inp:string -> out:string -> n:int -> (float -> float) -> float process
val zip_with :
  in1:string -> in2:string -> out:string -> n:int -> (float -> float -> float) ->
  float process

val of_sdf_actor : Sdf.t -> Sdf.actor -> rounds:int -> float process
(** Wrap an SDF actor as a KPN process: each round it reads one token
    per incoming edge (channel name = ["src/port->dst/port"]), applies
    the block behaviour ({!Exec.behaviour}, S-Functions with their
    default pseudo-behaviour), writes one token per outgoing edge.
    UnitDelay actors pre-write their initial condition, so cyclic CAAMs
    run. *)

val channel_name : Sdf.edge -> string

val of_sdf : rounds:int -> Sdf.t -> (string * float process) list
(** The whole flattened model as a process network (top-level Inports
    produce a deterministic stimulus, Outports consume). *)
