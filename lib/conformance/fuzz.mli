(** Seeded conformance fuzzing: generate random UML models, synthesize
    them, run every backend against the reference executor, and shrink
    any disagreement to a minimal counterexample.

    Generation draws from all the {!Umlfront_casestudies.Random_models}
    shapes — linear pipelines, scatter/gather, monolithic,
    crane-style cyclic (UnitDelay insertion), multi-CPU (GFIFO
    channels) and multi-rate chatty chains — deterministically in the
    master seed.  A generated model must be lint-clean
    ({!Umlfront_analysis.Lint.check}) before it is checked; the rare
    rejects are counted, not failed. *)

type case = {
  index : int;  (** 0-based position in the run *)
  case_seed : int;  (** derived seed; regenerates this exact model *)
  shape : string;  (** generator name, e.g. ["cyclic"] *)
  uml : Umlfront_uml.Model.t;
  caam : Umlfront_simulink.Model.t;
  report : Conform.report;
}

type counterexample = {
  case : case;
  minimized : Umlfront_simulink.Model.t;
  shrink_stats : Shrink.stats option;  (** [None] when shrinking is off *)
  corpus_dir : string option;  (** where the artifacts were written *)
}

type outcome = {
  checked : int;
  skipped : int;  (** generated models rejected by the lint precondition *)
  failures : counterexample list;
}

val run :
  ?backends:Conform.backend list ->
  ?engine:Conform.engine ->
  ?rounds:int ->
  ?shrink:bool ->
  ?corpus:string ->
  ?corrupt:Conform.backend * (float -> float) ->
  ?progress:(case -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  outcome
(** Fuzz [count] models derived from [seed].  For every disagreement:
    when [shrink] (default [true]) the failing CAAM is minimized with
    {!Shrink.minimize} (the repro re-runs {!Conform.check} restricted
    to the disagreeing backends); when [corpus] is given, a directory
    [<corpus>/<model>-<shape>/] is created holding the original model
    as XMI, the minimized CAAM as [.mdl] (plus captured XMI when the
    capture pass accepts it) and a [repro.txt] with the exact
    [umlfront] commands that reproduce the failure.

    [corrupt] is forwarded to every {!Conform.check} (including the
    shrinker's repro), so the test suite can fuzz against a
    deliberately broken backend.  [engine] selects the reference
    executor the same way (default [`Seq]; [`Compiled] fuzzes the
    compiled flat interpreter as the reference).  [progress] is called
    after each checked case.

    Instrumented: a [conform.fuzz] span plus [conform.fuzz.cases],
    [conform.fuzz.skipped] and [conform.fuzz.failures] counters, all in
    the current {!Umlfront_obs.Context}. *)
