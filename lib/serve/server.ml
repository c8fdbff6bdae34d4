(* The serving daemon.  Transport and scheduling only — everything a
   request *means* lives in {!Api} (pure), {!Http} (codec) and
   {!Cache} (memoization), which is what keeps this file small enough
   to audit: accept, admit, decode, dispatch, observe, reply.

   Threading model: only the pool's workers are domains.  The acceptor
   is a systhread of the domain that calls [start]; it owns the
   listening socket and does admission control, and each accepted
   connection becomes one fire-and-forget pool task that handles the
   whole keep-alive conversation.  The SSE pump and the access-log
   writer are systhreads of that same domain, so they do their I/O off
   the request path — the request path never waits on a disk or a slow
   stream consumer.  Threads that only wait on a socket or a queue are
   not domains because every minor collection stops every domain: an
   idle one would still have to answer each stop-the-world request
   while the workers wait.  The only state shared across domains is
   the cache (its own mutex), the in-flight counter (atomic), the root
   telemetry context (each sink behind its own lock) and the
   observability fan-out — rolling window, trace store, access log and
   SSE hub, each behind its own lock. *)

module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Pool = Umlfront_parallel.Pool

type config = {
  port : int;
  pool : int;
  cache_mb : int;
  max_inflight : int;
  timeout_s : float;
  max_body : int;
  access_log : string option;
  trace_sample : float;
}

let default_config =
  {
    port = 0;
    pool = 2;
    cache_mb = 32;
    max_inflight = 64;
    timeout_s = 30.;
    max_body = 8 * 1024 * 1024;
    access_log = None;
    trace_sample = 0.;
  }

type t = {
  config : config;
  listener : Unix.file_descr;
  bound_port : int;
  root : Obs.Context.t;
  cache : Cache.t;
  workers : Pool.t;
  inflight_count : int Atomic.t;
  request_count : int Atomic.t;
  stopping : bool Atomic.t;
  started_at : float;
  window : Obs.Window.t;
  traces : Trace_store.t;
  hub : Events_hub.t;
  access : Access_log.t option;
  mutable acceptor : Thread.t option;
}

let port t = t.bound_port
let root t = t.root
let cache_stats t = Cache.stats t.cache
let inflight t = Atomic.get t.inflight_count
let window t = t.window
let subscribers t = Events_hub.subscribers t.hub
let events_dropped t = Events_hub.dropped t.hub
let access_log_dropped t =
  match t.access with Some log -> Access_log.dropped log | None -> 0

(* --- socket plumbing -------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* A dead peer (EPIPE/ECONNRESET) is not a server error: drop the
   bytes, the connection loop closes right after. *)
let send fd s =
  match write_all fd s 0 (String.length s) with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* --- request handling ------------------------------------------------- *)

let json_error status message =
  (status, "application/json",
   Json.to_string (Json.Obj [ ("error", Json.String message) ]) ^ "\n")

let overload_body =
  Json.to_string
    (Json.Obj
       [
         ("error", Json.String "server overloaded");
         ("hint", Json.String "retry after the interval in Retry-After");
       ])
  ^ "\n"

let timeout_body =
  Json.to_string
    (Json.Obj
       [
         ("error", Json.String "request deadline exceeded");
         ("hint", Json.String "raise --timeout or simplify the model");
       ])
  ^ "\n"

(* Everything the observability fan-out wants to know about one served
   request, next to the response itself. *)
type reply = {
  r_status : int;
  r_content_type : string;
  r_body : string;
  r_headers : (string * string) list;
  r_cache : string; (* "hit" | "miss" | "-" *)
  r_spans : int;
  r_model : string option; (* the content hash the cache keys on *)
  r_trace_stored : bool;
}

let reply ?(headers = []) ?(cache = "-") ?(spans = 0) ?model
    ?(trace_stored = false) status content_type body =
  {
    r_status = status;
    r_content_type = content_type;
    r_body = body;
    r_headers = headers;
    r_cache = cache;
    r_spans = spans;
    r_model = model;
    r_trace_stored = trace_stored;
  }

let reply_error status message =
  let status, ct, body = json_error status message in
  reply status ct body

let observe_request t ~endpoint ~status ~cache_state ~dur_us =
  let r = t.root.Obs.Context.metrics in
  Obs.Metrics.incr ~registry:r "serve.requests";
  Obs.Metrics.incr ~registry:r (Printf.sprintf "serve.status.%dxx" (status / 100));
  Obs.Metrics.incr ~registry:r ("serve.endpoint." ^ endpoint);
  (match cache_state with
  | Some true -> Obs.Metrics.incr ~registry:r "serve.cache.hit"
  | Some false -> Obs.Metrics.incr ~registry:r "serve.cache.miss"
  | None -> ());
  Obs.Metrics.observe ~registry:r "serve.request_us" dur_us

(* Deterministic sampling on the request counter: rate 0.25 keeps every
   request whose id falls in the first quarter of each block of 1000.
   Reproducible under test, and immune to RNG state races. *)
let sampled t request_id =
  t.config.trace_sample > 0.
  && float_of_int (request_id mod 1000) < t.config.trace_sample *. 1000.

(* The retained span tree, as a Chrome trace object (same shape as
   {!Obs.Trace.to_json}: traceEvents + displayTimeUnit + otherData). *)
let chrome_trace ~request_id ~endpoint ~trace_id events =
  let sorted = List.sort Obs.Trace.event_order events in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map Obs.Trace.event_json sorted));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj
             [
               ("tool", Json.String "umlfront");
               ("request", Json.Int request_id);
               ("endpoint", Json.String endpoint);
               ("trace_id", Json.String trace_id);
             ] );
       ])

(* A cache hit computes nothing, so a traced hit retains a one-instant
   tree that says exactly that. *)
let hit_event =
  {
    Obs.Trace.ev_id = -1;
    ev_parent = -1;
    ev_name = "serve.cache.hit";
    ev_cat = "serve";
    ev_ph = 'i';
    ev_ts = 0.0;
    ev_dur = 0.0;
    ev_tid = 1;
    ev_args = [];
  }

(* One compute request: raw lookup, else parse, canonical lookup and a
   forked context with a deadline; metrics merge-back, optional
   span-tree retention.  A body that filled an entry is answered from
   the raw index without being parsed; any other body pays for the
   parse and the canonical key, and counts the hit or miss there. *)
let compute t ~request_id ~trace_id endpoint (req : Http.request) =
  match Api.options_of_query req.Http.query with
  | Error msg ->
      let status, ct, body = json_error 400 msg in
      reply status ct body
  | Ok opts -> (
      let retain = opts.Api.trace || sampled t request_id in
      let ep = Api.endpoint_name endpoint in
      let hit key v =
        if retain then
          Trace_store.add t.traces ~id:(string_of_int request_id)
            (chrome_trace ~request_id ~endpoint:ep ~trace_id [ hit_event ]);
        reply
          ~headers:[ ("X-Cache", "hit") ]
          ~cache:"hit" ~model:key ~trace_stored:retain v.Cache.status
          v.Cache.content_type v.Cache.body
      in
      let raw = Api.raw_key endpoint opts req.Http.body in
      match Cache.find_raw t.cache raw req.Http.body with
      | Some (key, v) -> hit key v
      | None -> (
          match Api.parse_model req.Http.body with
          | Error d ->
              reply 422 "application/json"
                (Json.to_string
                   (Json.List [ Umlfront_analysis.Diagnostic.list_to_json [ d ] ])
                ^ "\n")
          | Ok uml -> (
              let key = Api.cache_key endpoint opts uml in
              match Cache.find t.cache key with
              | Some v -> hit key v
              | None ->
                  (* A fork of the root: spans and counters of this request
                     land in its own buffer and registry, journal entries go
                     straight to the root journal.  Only the metrics are
                     merged back — absorbing every request's span tree into
                     a daemon-lifetime buffer would grow without bound;
                     retained trees go to the bounded {!Trace_store}
                     instead. *)
                  let rctx = Obs.Context.fork t.root in
                  let deadline = Unix.gettimeofday () +. t.config.timeout_s in
                  let outcome =
                    Obs.Context.with_current rctx (fun () ->
                        Obs.Trace.enable ();
                        Obs.Journal.record
                          ~fields:
                            [
                              ("endpoint", Json.String ep);
                              ("request", Json.Int request_id);
                            ]
                          "serve.request";
                        match Api.run ~deadline endpoint opts uml with
                        | o -> Ok o
                        | exception Api.Timeout -> Error `Timeout)
                  in
                  let events = Obs.Trace.events_in rctx.Obs.Context.trace in
                  let spans = List.length events in
                  if retain then
                    Trace_store.add t.traces ~id:(string_of_int request_id)
                      (chrome_trace ~request_id ~endpoint:ep ~trace_id events);
                  Obs.Metrics.merge ~into:t.root.Obs.Context.metrics
                    rctx.Obs.Context.metrics;
                  let headers =
                    [ ("X-Cache", "miss"); ("X-Request-Spans", string_of_int spans) ]
                  in
                  (match outcome with
                  | Ok o ->
                      if o.Api.status = 200 then
                        Cache.add ~raw:(raw, req.Http.body) t.cache key
                          {
                            Cache.status = o.Api.status;
                            content_type = o.Api.content_type;
                            body = o.Api.body;
                          };
                      reply ~headers ~cache:"miss" ~spans ~model:key
                        ~trace_stored:retain o.Api.status o.Api.content_type
                        o.Api.body
                  | Error `Timeout ->
                      reply
                        ~headers:(("Retry-After", "1") :: headers)
                        ~cache:"miss" ~spans ~model:key ~trace_stored:retain 503
                        "application/json" timeout_body))))

let metrics_body t =
  let r = t.root.Obs.Context.metrics in
  let c = Cache.stats t.cache in
  Obs.Metrics.set_gauge ~registry:r "serve.cache.hits" (float_of_int c.Cache.hits);
  Obs.Metrics.set_gauge ~registry:r "serve.cache.raw_hits"
    (float_of_int c.Cache.raw_hits);
  Obs.Metrics.set_gauge ~registry:r "serve.cache.misses"
    (float_of_int c.Cache.misses);
  Obs.Metrics.set_gauge ~registry:r "serve.cache.evictions"
    (float_of_int c.Cache.evictions);
  Obs.Metrics.set_gauge ~registry:r "serve.cache.entries"
    (float_of_int c.Cache.entries);
  Obs.Metrics.set_gauge ~registry:r "serve.cache.bytes" (float_of_int c.Cache.bytes);
  Obs.Metrics.set_gauge ~registry:r "serve.inflight"
    (float_of_int (Atomic.get t.inflight_count));
  Obs.Metrics.set_gauge ~registry:r "serve.events.subscribers"
    (float_of_int (Events_hub.subscribers t.hub));
  (* The drop counters must exist from the first scrape, not from the
     first drop. *)
  Obs.Metrics.incr ~registry:r ~by:0 "access_log.dropped";
  Obs.Metrics.incr ~registry:r ~by:0 "serve.events.dropped";
  (* Rolling per-endpoint series out of the window, as labeled gauges:
     the "right now" view next to the lifetime counters. *)
  List.iter
    (fun window_s ->
      let wlabel = Printf.sprintf "%gs" window_s in
      List.iter
        (fun name ->
          let labels = [ ("endpoint", name); ("window", wlabel) ] in
          Obs.Metrics.set_gauge ~registry:r
            (Obs.Openmetrics.labeled "serve.rolling.req_per_s" labels)
            (Obs.Window.rate t.window ~window_s name);
          let q = Obs.Window.quantiles t.window ~window_s name in
          Obs.Metrics.set_gauge ~registry:r
            (Obs.Openmetrics.labeled "serve.rolling.p50_us" labels)
            q.Obs.Window.q_p50;
          Obs.Metrics.set_gauge ~registry:r
            (Obs.Openmetrics.labeled "serve.rolling.p95_us" labels)
            q.Obs.Window.q_p95;
          Obs.Metrics.set_gauge ~registry:r
            (Obs.Openmetrics.labeled "serve.rolling.p99_us" labels)
            q.Obs.Window.q_p99)
        (Obs.Window.names t.window ~window_s:(Obs.Window.max_window_s t.window)))
    Obs.Window.default_windows;
  Obs.Openmetrics.render (Obs.Metrics.snapshot ~registry:r ())

let journal_body t =
  let entries = Obs.Journal.entries_in t.root.Obs.Context.journal in
  Json.to_string (Json.List (List.map Obs.Journal.entry_json entries)) ^ "\n"

let healthz_body t =
  Json.to_string
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ("inflight", Json.Int (Atomic.get t.inflight_count));
         ("requests", Json.Int (Atomic.get t.request_count));
         ("pool", Json.Int t.config.pool);
       ])
  ^ "\n"

let method_not_allowed allow =
  let status, ct, body = json_error 405 "method not allowed" in
  reply ~headers:[ ("Allow", allow) ] status ct body

let trace_route = "/api/trace/"

(* Route one decoded request to a reply.  [/events] never reaches this
   point — the conversation loop hands it to the hub. *)
let handle t ~request_id ~trace_id (req : Http.request) =
  match Api.endpoint_of_path req.Http.path with
  | Some endpoint ->
      if req.Http.meth = "POST" then compute t ~request_id ~trace_id endpoint req
      else method_not_allowed "POST"
  | None -> (
      match (req.Http.meth, req.Http.path) with
      | "GET", "/healthz" -> reply 200 "application/json" (healthz_body t)
      | "GET", "/metrics" ->
          reply 200 "application/openmetrics-text; version=1.0.0; charset=utf-8"
            (metrics_body t)
      | "GET", "/journal" -> reply 200 "application/json" (journal_body t)
      | "GET", "/dashboard" -> reply 200 "text/html; charset=utf-8" (Dashboard.page ())
      | "GET", "/api/windows" ->
          reply 200 "application/json"
            (Json.to_string (Obs.Window.to_json t.window) ^ "\n")
      | "GET", path when String.starts_with ~prefix:trace_route path -> (
          let id =
            String.sub path (String.length trace_route)
              (String.length path - String.length trace_route)
          in
          match Trace_store.find t.traces id with
          | Some payload -> reply 200 "application/json" (payload ^ "\n")
          | None -> reply_error 404 ("no retained trace for request " ^ id))
      | _, ("/healthz" | "/metrics" | "/journal" | "/dashboard" | "/api/windows")
        ->
          method_not_allowed "GET"
      | _, path when String.starts_with ~prefix:trace_route path ->
          method_not_allowed "GET"
      | ("GET" | "HEAD" | "POST"), _ -> reply_error 404 "no such route"
      | _ ->
          let status, ct, body = json_error 405 "method not allowed" in
          reply ~headers:[ ("Allow", "GET, POST") ] status ct body)

(* Endpoint label for window series, access entries and labeled
   counters: the request path for known routes, "other" for noise —
   labels must stay low-cardinality, so the raw path of a 404 never
   becomes one. *)
let endpoint_label (req : Http.request) =
  match Api.endpoint_of_path req.Http.path with
  | Some e -> "/api/" ^ Api.endpoint_name e
  | None -> (
      match req.Http.path with
      | ("/healthz" | "/metrics" | "/journal" | "/dashboard" | "/api/windows"
        | "/events") as p ->
          p
      | p when String.starts_with ~prefix:trace_route p -> "/api/trace"
      | _ -> "other")

(* The post-send fan-out: lifetime metrics, rolling window, root
   journal, access log, SSE.  Everything here is an in-memory append
   under a short lock — the two sinks that do real I/O (log file, SSE
   peers) run on their own threads and absorb or drop. *)
let record_access t (req : Http.request) (rep : reply) ~request_id ~tp ~dur_us =
  let r = t.root.Obs.Context.metrics in
  let ep = endpoint_label req in
  observe_request t
    ~endpoint:
      (match Api.endpoint_of_path req.Http.path with
      | Some e -> Api.endpoint_name e
      | None -> "other")
    ~status:rep.r_status
    ~cache_state:
      (match rep.r_cache with
      | "hit" -> Some true
      | "miss" -> Some false
      | _ -> None)
    ~dur_us;
  Obs.Metrics.incr ~registry:r
    (Obs.Openmetrics.labeled "serve.requests"
       [ ("endpoint", ep); ("status", string_of_int rep.r_status) ]);
  Obs.Window.add t.window ep;
  Obs.Window.observe t.window ep dur_us;
  let fields =
    [
      ("id", Json.Int request_id);
      ("method", Json.String req.Http.meth);
      ("path", Json.String req.Http.path);
      ("endpoint", Json.String ep);
      ("status", Json.Int rep.r_status);
      ("cache", Json.String rep.r_cache);
      ("latency_us", Json.Float dur_us);
      ("spans", Json.Int rep.r_spans);
      ("trace_id", Json.String tp.Traceparent.trace_id);
      ("trace_stored", Json.Bool rep.r_trace_stored);
    ]
    @
    match rep.r_model with
    | Some h -> [ ("model", Json.String h) ]
    | None -> []
  in
  Obs.Journal.record_in t.root.Obs.Context.journal ~fields "serve.access";
  (match t.access with
  | Some log ->
      let line =
        Json.to_string
          (Json.Obj (("ts", Json.Float (Unix.gettimeofday ())) :: fields))
      in
      if not (Access_log.append log line) then
        Obs.Metrics.incr ~registry:r "access_log.dropped"
  | None -> ());
  (* Render the frame only for someone to read it. *)
  if Events_hub.subscribers t.hub > 0 then
    let drops =
      Events_hub.publish t.hub
        (Sse.frame ~name:"request" (Json.to_string (Json.Obj fields)))
    in
    if drops > 0 then Obs.Metrics.incr ~registry:r ~by:drops "serve.events.dropped"

(* [/events]: write the response head and hello frame into the hub's
   outbox and hand the socket over — the conversation (and its worker
   slot) ends here, the pump thread owns the fd from now on. *)
let sse_greeting t ~request_id =
  let head =
    String.concat "\r\n"
      [
        "HTTP/1.1 200 OK";
        "Server: umlfront/1.0";
        "Content-Type: text/event-stream";
        "Cache-Control: no-cache";
        "X-Request-Id: " ^ string_of_int request_id;
        "Connection: close";
        "";
        "";
      ]
  in
  let hello =
    Json.to_string
      (Json.Obj
         [
           ("server", Json.String "umlfront");
           ("port", Json.Int t.bound_port);
           ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ])
  in
  head ^ Sse.frame ~name:"hello" hello

(* The whole conversation on one accepted connection: decode (with
   pipelining — a second buffered request surfaces on the next [next]),
   dispatch, reply, loop while keep-alive.  A codec error is terminal
   for the connection: framing is lost, answer once and close.
   Returns [`Hijacked] when the fd now belongs to the events hub. *)
let conversation t fd =
  let dec = Http.decoder ~max_body:t.config.max_body () in
  let buf = Bytes.create 8192 in
  let rec loop () =
    match Http.next dec with
    | `Request req ->
        let t0 = Unix.gettimeofday () in
        let request_id = Atomic.fetch_and_add t.request_count 1 in
        (* Join the caller's trace or start one; either way the
           response carries this hop's own parent-id. *)
        let tp =
          match Option.bind (Http.header req "traceparent") Traceparent.parse with
          | Some inbound -> Traceparent.child inbound
          | None -> Traceparent.generate ()
        in
        if req.Http.meth = "GET" && req.Http.path = "/events" then
          if Events_hub.subscribe t.hub fd ~greeting:(sse_greeting t ~request_id)
          then `Hijacked
          else begin
            Obs.Metrics.incr ~registry:t.root.Obs.Context.metrics
              "serve.events.rejected";
            send fd
              (Http.response
                 ~headers:[ ("Retry-After", "1") ]
                 ~close:true ~status:503 overload_body);
            `Done
          end
        else begin
          let rep = handle t ~request_id ~trace_id:tp.Traceparent.trace_id req in
          let close = Atomic.get t.stopping || not (Http.keep_alive req) in
          send fd
            (Http.response
               ~headers:
                 (rep.r_headers
                 @ [
                     ("X-Request-Id", string_of_int request_id);
                     ("traceparent", Traceparent.to_string tp);
                   ])
               ~content_type:rep.r_content_type ~close ~status:rep.r_status
               rep.r_body);
          record_access t req rep ~request_id ~tp
            ~dur_us:((Unix.gettimeofday () -. t0) *. 1e6);
          if close then `Done else loop ()
        end
    | `Error e ->
        let status = Http.error_status e in
        let _, content_type, body = json_error status (Http.error_message e) in
        send fd (Http.response ~content_type ~close:true ~status body);
        `Done
    | `Await -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> `Done (* peer closed *)
        | n ->
            Http.feed_bytes dec buf 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* idle past the read timeout *)
            `Done)
  in
  loop ()

let handle_connection t fd =
  let hijacked = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !hijacked then (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr t.inflight_count)
    (fun () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.timeout_s
       with Unix.Unix_error _ -> ());
      match conversation t fd with
      | `Hijacked -> hijacked := true
      | `Done -> ()
      | exception Unix.Unix_error _ -> () (* torn connection: nothing to answer *)
      | exception e ->
          (* Anything else is a server bug — but it must cost one 500,
             not a silently dead worker domain. *)
          Obs.Metrics.incr ~registry:t.root.Obs.Context.metrics
            "serve.internal_errors";
          let _, content_type, body =
            json_error 500 ("internal error: " ^ Printexc.to_string e)
          in
          send fd (Http.response ~content_type ~close:true ~status:500 body))

(* Admission control lives here, before any worker is involved: beyond
   [max_inflight] open connections the reply is an immediate 503 with
   Retry-After — overload must degrade to fast rejection, not to a
   growing queue. *)
let accept_loop t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed: stop *)
    | exception Unix.Unix_error (_, _, _) ->
        if Atomic.get t.stopping then () else loop ()
    | fd, _addr ->
        if Atomic.get t.stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ())
        else if Atomic.get t.inflight_count >= t.config.max_inflight then begin
          Obs.Metrics.incr ~registry:t.root.Obs.Context.metrics "serve.rejected";
          send fd
            (Http.response
               ~headers:[ ("Retry-After", "1") ]
               ~close:true ~status:503 overload_body);
          (* Half-close and drain what the peer already sent: closing
             with unread request bytes in the receive buffer makes TCP
             answer with RST, which can destroy the 503 before the
             client reads it.  The drain is bounded by SO_RCVTIMEO. *)
          (try
             Unix.shutdown fd Unix.SHUTDOWN_SEND;
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
             let junk = Bytes.create 4096 in
             while Unix.read fd junk 0 4096 > 0 do
               ()
             done
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ()
        end
        else begin
          Atomic.incr t.inflight_count;
          if not (Pool.submit t.workers (fun () -> handle_connection t fd)) then
            (* sequential pool (--pool 0): serve on the acceptor *)
            handle_connection t fd;
          loop ()
        end
  in
  loop ()

let start ?(config = default_config) () =
  (* A peer that disappears mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen listener 128;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let window = Obs.Window.create () in
  let hub =
    Events_hub.create
      ~heartbeat:(fun () ->
        Sse.frame ~name:"window" (Json.to_string (Obs.Window.to_json window)))
      ()
  in
  let t =
    {
      config;
      listener;
      bound_port;
      root = Obs.Context.create ~trace:false ();
      cache = Cache.create ~max_bytes:(config.cache_mb * 1024 * 1024);
      (* +1: the pool counts its owner, this domain, whose acceptor
         thread only submits and never helps drain, so [pool] real
         worker domains require a pool of size [pool + 1]. *)
      workers = Pool.create ~domains:(config.pool + 1) ();
      inflight_count = Atomic.make 0;
      request_count = Atomic.make 0;
      stopping = Atomic.make false;
      started_at = Unix.gettimeofday ();
      window;
      traces = Trace_store.create ();
      hub;
      access = Option.map (fun path -> Access_log.create ~path) config.access_log;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create accept_loop t);
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    Pool.shutdown t.workers;
    Events_hub.stop t.hub;
    Option.iter Access_log.close t.access
  end
