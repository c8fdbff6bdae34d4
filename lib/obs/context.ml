(* A reentrant telemetry context: one bundle of the four observability
   sinks — span buffer (Trace), metrics registry (Metrics), journal
   ring (Journal) and token sink (Telemetry).

   Historically all four were process-global singletons, which made
   Core.Flow a one-shot pipeline: a second concurrent run scribbled
   over the first one's counters and spans.  A context makes the whole
   bundle an explicit heap value.  The global singletons survive as
   [default], and every instrumented call site keeps writing through a
   domain-local *current* context, so existing CLI paths and tests see
   exactly the old behaviour until someone installs another one.

   [with_current] installs a context for the extent of a callback
   (saving and restoring whatever was current, so nesting works);
   [fork] derives a cheap child — per pool worker domain, per served
   request; [merge] folds children back into their parent
   deterministically — the trio the lib/parallel pool uses to give `-j`
   runs one coherent trace tree instead of interleaved globals. *)

type t = {
  trace : Trace.sink;
  metrics : Metrics.t;
  journal : Journal.sink;
  telemetry : Telemetry.sink;
}

let default =
  {
    trace = Trace.default;
    metrics = Metrics.global;
    journal = Journal.default;
    telemetry = Telemetry.default;
  }

(* [trace]/[telemetry] arm the respective sinks at creation. *)
let create ?(trace = false) ?(telemetry = false) () =
  {
    trace = Trace.create ~on:trace ();
    metrics = Metrics.create ();
    journal = Journal.create ();
    telemetry = Telemetry.create ~on:telemetry ();
  }

let current_key = Domain.DLS.new_key (fun () -> default)

let current () = Domain.DLS.get current_key

let install ctx =
  Domain.DLS.set current_key ctx;
  Trace.set_current ctx.trace;
  Metrics.set_current ctx.metrics;
  Journal.set_current ctx.journal;
  Telemetry.set_current ctx.telemetry

(* Make [ctx] the current context of this domain for the extent of
   [f], restoring whatever was current before — including after an
   exception, so a raising flow cannot leak its context into the
   caller's subsequent telemetry. *)
let with_current ctx f =
  let prev = current () in
  install ctx;
  Fun.protect ~finally:(fun () -> install prev) f

(* A child context: fresh span buffer and metrics registry (the two
   surfaces concurrent children write), with the journal and token
   sink shared with the parent — their entries land there as they
   happen, and sharing keeps forks cheap enough to take per batch or
   per request.  [root_parent] is the span that was open where the
   child was taken; its spans attach under it so the merged buffer
   forms one tree. *)
let fork ?(root_parent = -1) parent =
  {
    trace = Trace.fork ~root_parent parent.trace;
    metrics = Metrics.create ();
    journal = parent.journal;
    telemetry = parent.telemetry;
  }

(* Fold child contexts back into [into], deterministically: counters
   sum, gauges keep the max, histograms combine, and span buffers are
   re-sorted by (timestamp, span id) after concatenation — every rule
   is commutative, so the result does not depend on the order the
   children are listed in.  Journals and token sinks are not merged:
   a fork already writes into its parent's. *)
let merge ~into children =
  List.iter (fun child -> Metrics.merge ~into:into.metrics child.metrics) children;
  Trace.absorb ~into:into.trace (List.map (fun c -> c.trace) children)
