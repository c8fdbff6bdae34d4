(** Differential conformance checking: every backend against the SDF
    reference executor.

    The paper's central claim is that one UML model drives
    heterogeneous backends that all realize the same behaviour (§3–4);
    the generators promise trace-equivalence with
    {!Umlfront_dataflow.Exec} in their interfaces.  This engine makes
    the promise checkable for {e any} CAAM: it runs the model through
    every available backend and diffs the per-round output traces
    against the sequential reference executor.

    Backends:
    - [Seq]: {!Umlfront_dataflow.Exec.run}, sequential — the reference
      itself (diffing it against itself is the engine's self-test);
    - [Compiled_exec]: the compiled flat-schedule interpreter
      ({!Umlfront_dataflow.Compiled.run}) — on the caller's pool when
      {!check} is given one, sequentially otherwise; expected
      bit-identical to the reference;
    - [Kpn]: the in-memory Kahn process network ({!Umlfront_dataflow.Kpn.of_sdf})
      with per-round collecting sinks spliced over the Outports;
    - [C]: the generated multithreaded C program, compiled with [cc]
      and executed ([Backend_unavailable] when no C compiler is on
      PATH);
    - [Kpn_src]: the emitted [model_kpn.ml] source, checked
      structurally (channel constants, embedded model round-trip,
      output filter) rather than executed. *)

type backend = Seq | Compiled_exec | Kpn | C | Kpn_src

val all_backends : backend list
val backend_name : backend -> string

val backend_of_string : string -> (backend, string) result
(** Accepts [seq], [compiled], [kpn], [c] and [kpn-src]; the error
    for anything else names them. *)

val backends_of_string : string -> (backend list, string) result
(** A comma-separated list of {!backend_of_string} names, in order
    (blanks around a name are ignored) — the one parser of
    [--backends] and [backends=]. *)

type engine = [ `Seq | `Compiled ]
(** Which executor produces the reference traces: [`Seq] is
    {!Umlfront_dataflow.Exec.run}, [`Compiled] the compiled flat
    interpreter run sequentially.  Checking with [`Compiled] turns the
    whole differential harness — including the fuzzer — against the
    compiled executor. *)

val engine_name : engine -> string

val engine_of_string : string -> (engine, string) result
(** Accepts [seq] and [compiled]. *)

type token_provenance = {
  prov_block : string;  (** block that produced the divergent token *)
  prov_firing : int;  (** its 1-based firing index (= round + 1) *)
  prov_channel : string;  (** canonical ["src/p->dst/q"] channel *)
  prov_protocols : string list;  (** protocols the channel crosses *)
}
(** Causal identity of the first divergent token, resolved against the
    SDF graph — the same identity {!Umlfront_obs.Telemetry} stamps on
    tokens at runtime. *)

(** Why a backend disagreed with the reference. *)
type disagreement =
  | Trace of {
      round : int;
      port : string;
      expected : float;
      actual : float;
      provenance : token_provenance option;
    }
      (** First divergent sample: [expected] is the reference
          executor's value, [actual] the backend's; [provenance] names
          the token's producing block, firing and channel. *)
  | Crash of string  (** The backend raised (deadlock, parse error, …). *)
  | Structure of string
      (** A structural check failed (source-level backends). *)

type verdict =
  | Agree
  | Disagree of disagreement
  | Backend_unavailable of string
      (** The backend cannot run in this environment (e.g. no [cc]);
          never counted as a conformance failure. *)

type report = {
  model_name : string;
  rounds : int;
  outputs : string list;  (** top-level Outports diffed *)
  verdicts : (backend * verdict) list;  (** in the order requested *)
}

val check :
  ?backends:backend list ->
  ?engine:engine ->
  ?rounds:int ->
  ?pool:Umlfront_parallel.Pool.t ->
  ?corrupt:backend * (float -> float) ->
  Umlfront_simulink.Model.t ->
  report
(** Run the model through [backends] (default {!all_backends}) for
    [rounds] (default 10) and diff each against the reference traces
    produced by [engine] (default [`Seq]).  [Compiled_exec] runs on
    [pool] when given and sequentially otherwise; [check] never creates
    domains itself.

    [corrupt] is the test-only defect hook: the given function is
    applied to every trace sample the named backend produces before
    diffing, so the test suite can prove a broken backend is caught
    (and shrunk) without actually breaking one.

    Instrumented: a [conform.check] span plus [conform.checks],
    [conform.agree], [conform.disagree] and [conform.unavailable]
    counters, all in the current {!Umlfront_obs.Context}.

    @raise Invalid_argument when the model does not flatten and
    @raise Umlfront_dataflow.Exec.Deadlock when the {e reference}
    itself cannot execute — a model the reference rejects has no
    behaviour to conform to. *)

val disagreements : report -> (backend * disagreement) list
val agree : report -> bool
(** No [Disagree] verdict ([Backend_unavailable] does not count). *)

val render : report -> string
(** Human-readable multi-line summary. *)

val to_json : report -> Umlfront_obs.Json.t

val provenance_of_json : Umlfront_obs.Json.t -> (token_provenance, string) result
val disagreement_of_json : Umlfront_obs.Json.t -> (disagreement, string) result
val verdict_of_json : Umlfront_obs.Json.t -> (verdict, string) result

val report_of_json : Umlfront_obs.Json.t -> (report, string) result
(** Inverse of {!to_json}, so the wire format of
    [umlfront conform --format json] — the same bytes [umlfront serve]
    answers on [/api/conform] — is provably round-trippable.  Strict on
    required members, tolerant of unknown ones. *)
