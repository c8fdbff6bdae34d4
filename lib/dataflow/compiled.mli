(** Compiled flat-schedule execution of a flattened SDF graph — what
    [umlfront simulate] and [/api/simulate] run unless the oracle,
    {!Exec.run}, is asked for by name.

    {!Exec.run} interprets the graph shape every firing: hashtable
    lookups per port, a fresh input array per actor, list walks over
    predecessor edges.  This module instead {e compiles} the static
    schedule once — actors and edges numbered densely, block parameters
    and the default S-Function behaviour's constants resolved to
    immediates, token storage preallocated as ring-buffer FIFOs sized
    from the Lee–Messerschmitt bounds (one slot per forward edge, two
    per UnitDelay edge — the single-rate repetition vector is all-ones,
    so the bound is the per-round token count plus the delay's initial
    token) — and then runs a firing loop that writes every output into
    the actor's preallocated slots and pushes and pops tokens without
    boxing them.  With the default stimulus, a firing allocates nothing
    but the float an Inport's stimulus returns.

    With a real domain pool (size > 1) it work-steals over the
    precedence DAG rather than barrier per dependency level: rounds are
    batched per synchronization point, every (actor, round) firing is
    a node whose in-degree counts its unsatisfied inputs, and workers
    pull ready nodes from per-worker {!Umlfront_parallel.Wsdeque}s,
    stealing when their own runs dry.  Ring capacities scale with the
    batch window so a producer can run ahead of a consumer within the
    batch without overwriting live tokens.

    Either way the outcome is bit-identical to {!Exec.run} without
    [sfunctions]: the same float operations in the same order per
    actor, the same default stimulus, S-Function pseudo-behaviour
    ({!Exec.default_sfunction}) and unconnected-port semantics, and
    the same deterministic token-telemetry stream (replayed in
    topological order at each synchronization point, exactly as
    {!Exec.run} records it inline).  It is the only parallel SDF
    executor: without a pool, or with a 1-domain pool, it runs
    sequentially and never spawns a domain. *)

(** Bounded single-producer single-consumer FIFOs over preallocated
    float rings — the compiled executor's token storage.  [push]/[pop]
    enforce the Lee–Messerschmitt capacity; the [_slot] accessors are
    the unchecked positional view the batched parallel engine uses,
    where the static schedule (not a runtime head/tail) proves every
    access in bounds. *)
module Fifo : sig
  type t

  exception Full
  exception Empty

  val create : capacity:int -> t
  (** @raise Invalid_argument when [capacity < 1].  The backing ring is
      rounded up to a power of two; [push]/[pop] still enforce the
      logical [capacity]. *)

  val capacity : t -> int
  val length : t -> int
  val is_empty : t -> bool
  val is_full : t -> bool

  val push : t -> float -> unit
  (** @raise Full at [capacity] tokens. *)

  val pop : t -> float
  (** Oldest token.  @raise Empty when none is buffered. *)

  val set_slot : t -> int -> float -> unit
  (** [set_slot t i v] writes ring slot [i mod ring-size] directly. *)

  val get_slot : t -> int -> float
end

type plan
(** A compiled graph: dense actor/edge numbering, per-actor opcodes
    with resolved parameters, the topological firing order, and the
    precedence-DAG shape.  Compile once, run many times. *)

val compile : Sdf.t -> plan
(** @raise Exec.Deadlock on a zero-delay dependency cycle (the same
    check as {!Exec.firing_order}). *)

val run_plan :
  ?stimulus:(string -> int -> float) ->
  ?pool:Umlfront_parallel.Pool.t ->
  ?batch:int ->
  rounds:int ->
  plan ->
  Exec.outcome
(** Execute a compiled plan.  [stimulus] is {!Exec.run}'s; every
    S-Function runs its default pseudo-behaviour.  [batch] (default 32,
    parallel mode only) is how many rounds each work-stealing phase
    covers between synchronization points.  Telemetry goes to the
    current {!Umlfront_obs.Context}. *)

val run :
  ?stimulus:(string -> int -> float) ->
  ?pool:Umlfront_parallel.Pool.t ->
  ?batch:int ->
  rounds:int ->
  Sdf.t ->
  Exec.outcome
(** [compile] + {!run_plan}: the drop-in replacement for {!Exec.run}.
    With [pool] of size > 1 the batched work-stealing engine runs;
    otherwise the sequential flat interpreter does.  The outcome —
    traces, firings, rounds — is bit-identical to {!Exec.run} on the
    same inputs in both modes.  Pool workers record into forks of the
    current {!Umlfront_obs.Context}, merged back when each batch ends. *)
