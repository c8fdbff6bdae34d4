(** Synchronous execution of a flattened SDF graph — the stand-in for
    running the generated model in Simulink.

    Each round, every actor fires once in topological order; [UnitDelay]
    actors output the value stored in the previous round (their initial
    condition in round 0), which is what lets cyclic models execute.  A
    dependency cycle with no UnitDelay on it is a deadlock and raises
    {!Deadlock} — mechanically validating the temporal-barrier
    insertion of §4.2.2. *)

exception Deadlock of string list
(** Actors along a zero-delay dependency cycle. *)

type outcome = {
  rounds : int;
  traces : (string * float array) list;
      (** per top-level Outport: one sample per round *)
  firings : (string * int) list;  (** per actor *)
}

val run :
  ?sfunctions:(string -> (float array -> float array) option) ->
  ?stimulus:(string -> int -> float) ->
  rounds:int ->
  Sdf.t ->
  outcome
(** [sfunctions name] supplies the behaviour of S-Function blocks whose
    [FunctionName] is [name]; unknown S-Functions get a deterministic
    pseudo-behaviour derived from the name (an affine map of the input
    sum), so any generated model executes out of the box.  [stimulus
    inport round] feeds top-level Inports (default: [sin] of the round
    scaled per port).  Unconnected actor inputs read 0.

    Always sequential: this is the oracle every other executor and
    backend is diffed against — the default reference of conformance
    checking and fuzzing, and their [seq] backend.  [simulate] runs
    it only when asked for by name ([--engine seq], [engine=seq]); by
    default it runs {!Compiled.run}, whose outcome is bit-identical
    and which runs in parallel on a pool.

    Telemetry goes to the current {!Umlfront_obs.Context}; wrap the
    call in {!Umlfront_obs.Context.with_current} to send it elsewhere. *)

val default_sfunction : string -> float array -> int -> float array
(** The pseudo-behaviour: [default_sfunction name inputs n_outputs]. *)

val sfunction_constants : string -> float * float
(** [(a, b)] of the pseudo-behaviour of S-Function [name]: output [j]
    is [a *. sum inputs +. b +. 0.1 *. j].  The code generators bake
    the same constants into their default S-Function bodies. *)

val default_sfunction_into :
  a:float -> b:float -> float array -> float array -> int -> unit
(** [default_sfunction_into ~a ~b inputs outputs n] writes the
    pseudo-behaviour with constants [(a, b)] into [outputs.(0)] …
    [outputs.(n-1)], allocating nothing: the kernel
    {!default_sfunction} and {!Compiled} share. *)

(** {1 Stepping}

    A [session] executes one round at a time with a caller-supplied
    stimulus per round, keeping delay state across rounds — what
    co-simulation and interactive drivers need. *)

type session

val start :
  ?sfunctions:(string -> (float array -> float array) option) -> Sdf.t -> session
(** @raise Deadlock on a zero-delay cycle. *)

val step : session -> stimulus:(string -> float) -> (string * float) list
(** Fire every actor once; returns the top-level output-port samples. *)

val rounds_executed : session -> int

val firing_order : Sdf.t -> string list
(** Topological firing order with UnitDelay outputs cut.
    @raise Deadlock on a zero-delay cycle. *)

val levels : Sdf.t -> string list list
(** The firing order partitioned into dependency levels: actors in
    level [l] only depend (through non-UnitDelay edges) on actors in
    levels [< l], so each level can fire in any order.  Concatenating
    the levels yields a valid firing order; within a level, actors
    keep their {!firing_order} relative order.  Lint's buffer-bound
    rule orders producers and consumers by level.
    @raise Deadlock on a zero-delay cycle. *)

val behaviour :
  sfunctions:(string -> (float array -> float array) option) ->
  Sdf.actor ->
  float array ->
  float array
(** Pure behaviour of a combinational actor: inputs to outputs
    (1-indexed port [p] at index [p-1]).  [UnitDelay], top-level
    [Inport]/[Outport] and structural blocks are the scheduler's
    business.
    @raise Invalid_argument on those stateful/structural kinds. *)

(** {1 Shared executor ingredients}

    Exported so alternative executors (notably {!Compiled}) replicate
    the reference semantics from the {e same} definitions instead of
    re-deriving them — any drift would show up as a conformance
    divergence, so there must be exactly one source of truth. *)

val param_float : Umlfront_simulink.System.block -> string -> float -> float
(** [param_float blk key fallback]: the block parameter as a float,
    with the reference executor's coercions (int and numeric-string
    parameters convert; anything else is [fallback]). *)

val sum_signs : Umlfront_simulink.System.block -> int -> float list
(** Per-input sign (+1.0/-1.0) of a [Sum] block from its ["Inputs"]
    spec, defaulting to all-plus when the spec is absent or does not
    match the input count. *)

val default_stimulus : string -> int -> float
(** The default Inport stimulus: [sin ((round + phase) / 5)], with the
    port's {!stimulus_phase}. *)

val stimulus_phase : string -> int
(** The per-port phase (0-9) of {!default_stimulus}, derived from the
    port name; the code generators emit the same formula. *)

val channel_metrics : Sdf.t -> int -> unit
(** Record per-protocol channel occupancy gauges and token counters
    ([exec.channel_occupancy.*], [exec.tokens.*]) for [rounds] executed
    rounds of [sdf] — one token per edge per round. *)

val journal_channel_hwms : unit -> unit
(** With {!Umlfront_obs.Telemetry} on, journal one [channel.hwm] entry
    per channel the token sink has seen (its high-water mark and the
    round it was reached); a no-op otherwise.  Both executors call it
    last in a run. *)
