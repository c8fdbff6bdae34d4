(* The traced replay: the head of a workload's stream served again
   in-process on one domain, calling the layers exactly as the daemon's
   request path does (Server.compute), with a span around every call.
   Each miss's compute is then split into layers by calling them one by
   one.  Spans come from this file only; the program's own spans are
   read just for the flow phases.  The replay also checks every answer
   byte-for-byte against what the daemon served, and simulate traces
   sample-for-sample against the Exec.run oracle. *)

module Api = Umlfront_serve.Api
module Http = Umlfront_serve.Http
module Cache = Umlfront_serve.Cache
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Flow = Umlfront_core.Flow
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Compiled = Umlfront_dataflow.Compiled
module Gen = Umlfront_codegen
module Conform = Umlfront_conformance.Conform
module Lint = Umlfront_analysis.Lint
module Pool = Umlfront_parallel.Pool

let now = Monotonic_clock.now
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3

type span = {
  id : int;
  parent : int;
  req : int;
  lane : int;  (** 1: the request path; 2: its compute split into layers *)
  name : string;
  t0 : int64;
  t1 : int64;
}

type state = {
  cache : Cache.t;  (** 32 MiB, as the daemon's *)
  root : Obs.Context.t;  (** what the per-miss contexts merge into *)
  mutable spans : span list;
  mutable next_id : int;
}

let create () =
  {
    cache = Cache.create ~max_bytes:(32 * 1024 * 1024);
    root = Obs.Context.create ~trace:false ();
    spans = [];
    next_id = 1;
  }

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let record st ?(id = fresh_id st) ~req ~parent ~lane name t0 t1 =
  st.spans <- { id; parent; req; lane; name; t0; t1 } :: st.spans;
  id

let request_bytes (r : Workload.request) =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
    r.Workload.target
    (String.length r.Workload.body)
    r.Workload.body

let get_ok what = function Ok v -> v | Error _ -> failwith ("replay: bad " ^ what)

type served = {
  opts : Api.options;
  uml : Umlfront_uml.Model.t;
  body : string;
  run : (int * float) option;  (** a miss: Api.run's span and µs *)
  parts : (string * float) list;  (** µs per step of the request path *)
}

(* One request down the daemon's path.  Untraced, it only computes;
   traced, it records a span per step and returns the step times. *)
let serve st ~traced (r : Workload.request) raw =
  let req_id = r.Workload.id in
  let root = if traced then fresh_id st else -1 in
  let start = now () in
  let parts = ref [] in
  let step name f =
    if not traced then f ()
    else
      let t0 = now () in
      let v = f () in
      let t1 = now () in
      ignore (record st ~req:req_id ~parent:root ~lane:1 name t0 t1);
      parts := (name, us_between t0 t1) :: !parts;
      v
  in
  let req, opts =
    step "serve.http.decode" (fun () ->
        let dec = Http.decoder () in
        Http.feed dec raw;
        match Http.next dec with
        | `Request q -> (q, get_ok "query" (Api.options_of_query q.Http.query))
        | `Await | `Error _ -> failwith "replay: request does not decode")
  in
  let uml = step "uml.xmi.parse" (fun () -> get_ok "XMI" (Api.parse_model req.Http.body)) in
  let endpoint = r.Workload.endpoint in
  let key = step "serve.api.cache_key" (fun () -> Api.cache_key endpoint opts uml) in
  let found = step "serve.cache.find" (fun () -> Cache.find st.cache key) in
  let status, content_type, body, run =
    match found with
    | Some v -> (v.Cache.status, v.Cache.content_type, v.Cache.body, None)
    | None ->
        (* The per-miss telemetry bracket: private context, journal
           entry, then the merge back into the root context. *)
        let ta = now () in
        let rctx = Obs.Context.create ~trace:true () in
        let tb = ref ta and tc = ref ta in
        let o =
          Obs.Context.with_current rctx (fun () ->
              Obs.Journal.record
                ~fields:
                  [
                    ("endpoint", Json.String (Api.endpoint_name endpoint));
                    ("request", Json.Int req_id);
                  ]
                "serve.request";
              tb := now ();
              let o = Api.run ~deadline:(Unix.gettimeofday () +. 30.) endpoint opts uml in
              tc := now ();
              o)
        in
        ignore (Obs.Trace.events_in rctx.Obs.Context.trace);
        Obs.Metrics.merge ~into:st.root.Obs.Context.metrics rctx.Obs.Context.metrics;
        Obs.Journal.merge ~into:st.root.Obs.Context.journal rctx.Obs.Context.journal;
        let td = now () in
        let run =
          if not traced then None
          else begin
            let b = record st ~req:req_id ~parent:root ~lane:1 "obs.context.bracket" ta td in
            let run_us = us_between !tb !tc in
            parts :=
              ("serve.api.run", run_us)
              :: ("obs.context.bracket", us_between ta td -. run_us)
              :: !parts;
            Some (record st ~req:req_id ~parent:b ~lane:1 "serve.api.run" !tb !tc, run_us)
          end
        in
        step "serve.cache.add" (fun () ->
            if o.Api.status = 200 then
              Cache.add st.cache key
                {
                  Cache.status = o.Api.status;
                  content_type = o.Api.content_type;
                  body = o.Api.body;
                });
        (o.Api.status, o.Api.content_type, o.Api.body, run)
  in
  ignore
    (step "serve.http.encode" (fun () ->
         Http.response
           ~headers:[ ("X-Cache", if found = None then "miss" else "hit") ]
           ~content_type ~status body));
  if traced then ignore (record st ~id:root ~req:req_id ~parent:(-1) ~lane:1 "replay.request" start (now ()));
  { opts; uml; body; run; parts = !parts }

(* Api.run's compute, one layer call at a time.  [self] layers add up
   to the compute; [nested] ones (flow phases, the compiled backend
   inside conformance) are shown but not added again. *)
let decompose st ~req ~parent (r : Workload.request) s =
  let self = ref [] and nested = ref [] in
  let call ?(into = self) name f =
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    ignore (record st ~req ~parent ~lane:2 name t0 t1);
    into := (name, us_between t0 t1) :: !into;
    v
  in
  let opts = s.opts in
  let fctx = Obs.Context.create ~trace:true () in
  let output =
    call "core.flow.run" (fun () -> Flow.run ~strategy:opts.Api.strategy ~ctx:fctx s.uml)
  in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      if String.starts_with ~prefix:"flow." ev.Obs.Trace.ev_name && ev.ev_name <> "flow.run"
      then nested := ("core." ^ ev.ev_name, ev.ev_dur) :: !nested)
    (Obs.Trace.events_in fctx.Obs.Context.trace);
  let caam = output.Flow.caam in
  let rounds = opts.Api.rounds in
  let oracle =
    match r.Workload.endpoint with
    | Api.Lint ->
        ignore (call "analysis.lint.check" (fun () -> Lint.check ~uml:s.uml caam));
        None
    | Api.Transform -> None
    | Api.Simulate ->
        (* The workload keeps the default engine, the sequential
           executor, which is also the oracle. *)
        let sdf = call "dataflow.sdf.of_model" (fun () -> Sdf.of_model caam) in
        Some (call "dataflow.exec.run" (fun () -> Exec.run ~rounds sdf))
    | Api.Conform ->
        ignore
          (call "conformance.check" (fun () ->
               Conform.check ?backends:opts.Api.backends ~engine:opts.Api.engine ~rounds caam));
        (* The compiled backend as conformance runs it: compile, then a
           temporary 2-domain pool per request. *)
        let sdf = Sdf.of_model caam in
        let plan = call ~into:nested "dataflow.compiled.compile" (fun () -> Compiled.compile sdf) in
        ignore
          (call ~into:nested "dataflow.compiled.run_plan" (fun () ->
               Pool.with_pool ~domains:2 (fun pool -> Compiled.run_plan ~pool ~rounds plan)));
        None
    | Api.Generate lang ->
        ignore (call "analysis.lint.check" (fun () -> Lint.check ~uml:s.uml caam));
        (match lang with
        | `C -> ignore (call "codegen.gen_threads" (fun () -> Gen.Gen_threads.generate ~rounds caam))
        | `Java -> ignore (call "codegen.gen_java" (fun () -> Gen.Gen_java.generate ~rounds caam))
        | `Kpn -> ignore (call "codegen.gen_kpn" (fun () -> Gen.Gen_kpn.generate ~rounds caam)));
        None
  in
  (!self, !nested, oracle)

(* Served simulate traces equal the oracle's, sample for sample, as the
   wire renders them. *)
let same_traces body (o : Exec.outcome) =
  match Json.parse body with
  | Error _ -> false
  | Ok json -> (
      match Json.member "traces" json with
      | None -> false
      | Some traces ->
          let served = Json.items traces in
          List.length served = List.length o.Exec.traces
          && List.for_all2
               (fun port (name, samples) ->
                 Json.member "port" port = Some (Json.String name)
                 &&
                 match Json.member "samples" port with
                 | Some s ->
                     let s = Json.items s in
                     List.length s = Array.length samples
                     && List.for_all2
                          (fun got want ->
                            Json.parse (Json.to_string (Json.Float want)) = Ok got)
                          s (Array.to_list samples)
                 | None -> false)
               served o.Exec.traces)

type sample = {
  measured : bool;  (** past the warm-up *)
  service_us : float;  (** the request path, end to end *)
  self : (string * float) list;  (** µs per layer; sums to [service_us] *)
  nested : (string * float) list;
  firings : int;
  xmi_bytes : int;
}

type t = {
  samples : sample list;
  failures : (int * string) list;
  overhead_ratio : float;  (** traced / untraced time of the request path *)
  spans : span list;
  origin : int64;
}

(* Replay stream indices [0, count); [served id] is what the daemon
   answered, when it was kept. *)
let run ~stream ~warmup ~count ~served =
  let origin = now () in
  let st = create () in
  let failures = ref [] in
  let samples =
    List.init count (fun i ->
        let r : Workload.request = stream i in
        let s = serve st ~traced:true r (request_bytes r) in
        let self, nested, firings =
          match s.run with
          | None -> ([], [], 0)
          | Some (span, run_us) ->
              let self, nested, oracle = decompose st ~req:i ~parent:span r s in
              let inner = List.fold_left (fun acc (_, us) -> acc +. us) 0. self in
              (match (oracle, served i) with
              | Some o, Some body when not (same_traces body o) ->
                  failures := (i, "served traces differ from the Exec.run oracle") :: !failures
              | _ -> ());
              ( ("serve.api.encode", Float.max 0. (run_us -. inner)) :: self,
                nested,
                match oracle with
                | Some o -> List.fold_left (fun acc (_, n) -> acc + n) 0 o.Exec.firings
                | None -> 0 )
        in
        (match served i with
        | Some body when not (String.equal body s.body) ->
            failures := (i, "served body differs from in-process Api.run") :: !failures
        | _ -> ());
        let path = List.filter (fun (name, _) -> name <> "serve.api.run") s.parts in
        {
          measured = i >= warmup;
          service_us = List.fold_left (fun acc (_, us) -> acc +. us) 0. s.parts;
          self = path @ self;
          nested = (match s.run with Some (_, us) -> [ ("serve.api.run", us) ] | None -> []) @ nested;
          firings;
          xmi_bytes = String.length r.Workload.body;
        })
  in
  (* What the spans cost: the request path over the first 32 requests,
     untraced and traced in turn, three times each; each pass starts
     from an empty cache, and the fastest pass of each kind counts. *)
  let priced = List.init (min count 32) (fun i -> let r = stream i in (r, request_bytes r)) in
  let pass traced =
    let st = create () in
    let t0 = now () in
    List.iter (fun (r, raw) -> ignore (serve st ~traced r raw)) priced;
    us_between t0 (now ())
  in
  let passes = List.init 3 (fun _ -> let off = pass false in (off, pass true)) in
  let fastest f = List.fold_left (fun acc p -> Float.min acc (f p)) Float.infinity passes in
  {
    samples;
    failures = !failures;
    overhead_ratio = fastest snd /. fastest fst;
    spans = st.spans;
    origin;
  }

(* Chrome trace-event JSON: lane 1 is the request path, lane 2 the
   compute split into layers; args carry the request id and the span
   that caused each span. *)
let chrome_json t =
  let ts x = Int64.to_float (Int64.sub x t.origin) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "bench");
        ("ph", Json.String "X");
        ("ts", Json.Float (ts s.t0));
        ("dur", Json.Float (us_between s.t0 s.t1));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.lane);
        ( "args",
          Json.Obj
            [ ("request", Json.Int s.req); ("span", Json.Int s.id); ("parent", Json.Int s.parent) ]
        );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.rev_map event t.spans));
         ("displayTimeUnit", Json.String "ms");
       ])
