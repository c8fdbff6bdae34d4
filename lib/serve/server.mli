(** The [umlfront serve] daemon: a long-lived, cache-keyed compilation
    service over the whole flow, on nothing but [Unix] sockets,
    domains and threads.

    Only the [pool] workers are domains.  An acceptor thread of the
    domain that calls {!start} owns the listening socket; every
    accepted connection is handed to the {!Umlfront_parallel.Pool} as
    a fire-and-forget task ({!Umlfront_parallel.Pool.submit}) and
    handled there end to end — keep-alive loop, pipelining,
    per-request telemetry.  With [pool = 0] the acceptor thread serves
    each connection itself.  Admission control happens at accept
    time: once [max_inflight] connections are in flight the server
    answers [503 Service Unavailable] with [Retry-After] and closes,
    so overload degrades to fast rejection, never to a hang.

    Endpoints:
    - [POST /api/lint], [/api/transform], [/api/simulate],
      [/api/conform], [/api/generate/{c,java,kpn}] — XMI in the body,
      options in the query string ({!Api.options_of_query}), JSON out;
    - [GET /healthz] — liveness, uptime, in-flight count;
    - [GET /metrics] — OpenMetrics exposition of the server's root
      telemetry context and cache gauges, with request counters
      labeled by endpoint and status;
    - [GET /journal] — the root run journal as a JSON list;
    - [GET /api/trace/ID] — the retained Chrome-trace span tree of
      request ID (kept when the request said [?trace=1] or fell in
      [trace_sample]).

    Every request is numbered ([X-Request-Id]), joins or starts a W3C
    trace ([traceparent] echoed in the response), lands in the root
    journal ([serve.access] entries), and — when
    [access_log] is set — is appended as one JSON line by a writer
    thread of that same domain, which never blocks the request path
    (full queue = dropped line + [umlfront_access_log_dropped_total]).

    Each cache miss runs on a {!Umlfront_obs.Context.fork} of the
    server's root context: its own span buffer and metrics registry
    (so concurrent requests never see each other's spans or counters),
    the root's journal and token sink.  Its journal entries land in the
    root journal as they happen; only its metrics are merged back
    afterwards.  Span buffers are deliberately {e not} absorbed — a
    daemon must not accumulate one span tree per request forever.  The
    response advertises the isolation: [X-Request-Id] numbers the
    request, [X-Request-Spans] counts the trace events its fork
    recorded (a bled-into buffer would show inflated counts), and
    [X-Cache: hit|miss] reports the content-hash cache. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  pool : int;  (** worker domains handling connections (>= 0) *)
  cache_mb : int;
      (** response cache budget, the stored request bodies included;
          [<= 0] disables *)
  max_inflight : int;  (** admission-control bound on open connections *)
  timeout_s : float;  (** per-request compute deadline, and socket read timeout *)
  max_body : int;  (** request-body bound (413 beyond it) *)
  access_log : string option;  (** JSONL access-log path; [None] disables *)
  trace_sample : float;
      (** fraction of requests whose span tree is retained (0..1);
          [?trace=1] retains regardless *)
}

val default_config : config
(** Port 0, 2 workers, 32 MiB cache, 64 in flight, 30 s timeout,
    8 MiB bodies, no access log, no sampling. *)

type t

val start : ?config:config -> unit -> t
(** Bind [127.0.0.1], spawn the pool's [pool] worker domains, start
    the acceptor and (with [access_log]) log-writer threads in the
    calling domain, and return once the socket is listening (so
    a client may connect immediately).  Those threads share the
    calling domain with its other threads, so the caller should wait
    (as [umlfront serve] does) rather than compute while it serves. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port = 0]. *)

val stop : t -> unit
(** Close the listener, shut the read side of every open connection
    (so a worker blocked on an idle keep-alive connection leaves at
    once instead of after [timeout_s]), join the acceptor thread, drain
    and join the pool, then the log writer.  Idempotent.  Bytes a
    connection already received stay readable, so a request that has
    arrived finishes and gets its reply; one still arriving is cut off.
    No new connection is accepted. *)

val root : t -> Umlfront_obs.Context.t
(** The server's root telemetry context — every request's journal
    entries land here and its metrics are merged in (what [/metrics]
    and [/journal] serve). *)

val cache_stats : t -> Cache.stats
val inflight : t -> int

val access_log_dropped : t -> int
(** Access-log lines dropped on a full writer queue; 0 without a log. *)
