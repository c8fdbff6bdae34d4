(* Umlfront_obs: span nesting, metrics/histogram percentiles, and the
   Chrome trace-event JSON shape. *)

module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Metrics = Umlfront_obs.Metrics
module Trace = Umlfront_obs.Trace

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let feq = Alcotest.float 1e-6

(* --- JSON serializer ------------------------------------------------ *)

let contains = Astring_contains.contains

let json_escaping () =
  check Alcotest.string "escapes" "{\"a\\\"b\":\"x\\ny\\tz\\\\\"}"
    (Json.to_string (Json.Obj [ ("a\"b", Json.String "x\ny\tz\\") ]));
  check Alcotest.string "scalars" "[null,true,42,-1,1.500000]"
    (Json.to_string
       (Json.List [ Json.Null; Json.Bool true; Json.Int 42; Json.Int (-1); Json.Float 1.5 ]));
  check Alcotest.string "integral floats printed as integers" "[3,null]"
    (Json.to_string (Json.List [ Json.Float 3.0; Json.Float Float.nan ]))

(* --- JSON parser ----------------------------------------------------- *)

let json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\n\t\\");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.String "v") ] ]);
      ]
  in
  (match Json.parse (Json.to_string doc) with
  | Ok v -> check Alcotest.string "serializer output parses back" (Json.to_string doc) (Json.to_string v)
  | Error e -> Alcotest.fail e);
  (match Json.parse "  { \"a\" : [ 1 , 2.5 , 1e2 , true ] } " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float f1; Json.Float f2; Json.Bool true ]) ]) ->
      check feq "fraction" 2.5 f1;
      check feq "exponent" 100.0 f2
  | Ok v -> Alcotest.failf "unexpected shape: %s" (Json.to_string v)
  | Error e -> Alcotest.fail e);
  match Json.parse "\"A\\u0041B\"" with
  | Ok (Json.String s) -> check Alcotest.string "ascii \\u escape decoded" "AAB" s
  | _ -> Alcotest.fail "unicode escape did not parse"

let json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v -> Alcotest.failf "%S should not parse, got %s" s (Json.to_string v)
      | Error e ->
          check Alcotest.bool (s ^ " error carries an offset") true (contains e "offset"))
    [ "{"; "[1,]"; "tru"; "1 x"; "\"unterminated"; ""; "{\"a\" 1}" ]

(* --- metrics registry ------------------------------------------------ *)

let fresh () = Metrics.create ()

let counters_and_gauges () =
  let r = fresh () in
  Metrics.incr ~registry:r "a";
  Metrics.incr ~registry:r ~by:4 "a";
  Metrics.set_gauge ~registry:r "g" 2.5;
  Metrics.set_gauge ~registry:r "g" 7.25;
  match Metrics.snapshot ~registry:r () with
  | [ a; g ] ->
      check Alcotest.string "counter name" "a" a.Metrics.s_name;
      check Alcotest.int "counter value" 5 a.Metrics.s_count;
      check Alcotest.string "gauge name" "g" g.Metrics.s_name;
      check feq "gauge keeps last value" 7.25 g.Metrics.s_value
  | l -> Alcotest.failf "expected 2 stats, got %d" (List.length l)

let histogram_percentiles () =
  let r = fresh () in
  (* 1..100 shuffled deterministically: percentiles must not depend on
     arrival order. *)
  List.iter
    (fun i -> Metrics.observe ~registry:r "h" (float_of_int (((i * 37) mod 100) + 1)))
    (List.init 100 (fun i -> i));
  match Metrics.snapshot ~registry:r () with
  | [ h ] ->
      check Alcotest.int "count" 100 h.Metrics.s_count;
      check feq "mean" 50.5 h.Metrics.s_value;
      check feq "min" 1.0 h.Metrics.s_min;
      check feq "max" 100.0 h.Metrics.s_max;
      check feq "p50" 50.5 h.Metrics.s_p50;
      check feq "p95" 95.05 h.Metrics.s_p95;
      check feq "p99" 99.01 h.Metrics.s_p99
  | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l)

(* 40 children x 500 uniform [0, 1000) samples overflow the 8192-slot
   ring when merged into one parent.  The kept sample must stay uniform
   (keeping the smallest samples would answer p50 ~205) and must not
   depend on the order the children are merged in. *)
let histogram_merge_overflow_is_unbiased () =
  let st = Random.State.make [| 7 |] in
  let children =
    List.init 40 (fun _ ->
        let c = fresh () in
        for _ = 1 to 500 do
          Metrics.observe ~registry:c "h" (Random.State.float st 1000.0)
        done;
        c)
  in
  let merged order =
    let parent = fresh () in
    List.iter (fun c -> Metrics.merge ~into:parent c) order;
    match Metrics.snapshot ~registry:parent () with
    | [ h ] -> h
    | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l)
  in
  let h = merged children in
  check Alcotest.int "count is exact" 20_000 h.Metrics.s_count;
  let within name truth v =
    if Float.abs (v -. truth) > 0.05 *. truth then
      Alcotest.failf "%s = %.1f, not within 5%% of %.0f" name v truth
  in
  within "p50" 500.0 h.Metrics.s_p50;
  within "p95" 950.0 h.Metrics.s_p95;
  within "p99" 990.0 h.Metrics.s_p99;
  let r = merged (List.rev children) in
  check Alcotest.(list (float 0.0)) "merge order cannot change the sample"
    [ h.Metrics.s_p50; h.Metrics.s_p95; h.Metrics.s_p99 ]
    [ r.Metrics.s_p50; r.Metrics.s_p95; r.Metrics.s_p99 ]

let percentile_edge_cases () =
  check feq "single sample" 7.0 (Metrics.percentile [| 7.0 |] 99.0);
  check feq "p0 is min" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0 |] 0.0);
  check feq "p100 is max" 3.0 (Metrics.percentile [| 1.0; 2.0; 3.0 |] 100.0);
  check feq "interpolates" 1.5 (Metrics.percentile [| 1.0; 2.0 |] 50.0);
  check Alcotest.bool "empty is nan" true (Float.is_nan (Metrics.percentile [||] 50.0))

(* Tiny sample counts and out-of-range ranks, pinned: the quantile code
   must clamp rather than index out of bounds or return garbage. *)
let percentile_tiny_counts_pinned () =
  let pins ~name ~values (p50, p95, p99) =
    let r = fresh () in
    List.iter (Metrics.observe ~registry:r "h") values;
    match Metrics.snapshot ~registry:r () with
    | [ h ] ->
        check feq (name ^ " p50") p50 h.Metrics.s_p50;
        check feq (name ^ " p95") p95 h.Metrics.s_p95;
        check feq (name ^ " p99") p99 h.Metrics.s_p99
    | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l)
  in
  pins ~name:"one sample" ~values:[ 7.0 ] (7.0, 7.0, 7.0);
  pins ~name:"two samples" ~values:[ 3.0; 1.0 ] (2.0, 2.9, 2.98);
  pins ~name:"three samples" ~values:[ 2.0; 3.0; 1.0 ] (2.0, 2.9, 2.98);
  (* Rank clamping: out-of-range p must clamp to min/max, a NaN rank
     falls back to the median. *)
  check feq "p>100 clamps to max" 3.0 (Metrics.percentile [| 1.0; 2.0; 3.0 |] 150.0);
  check feq "p<0 clamps to min" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0 |] (-5.0));
  check feq "nan rank falls back to median" 2.0
    (Metrics.percentile [| 1.0; 2.0; 3.0 |] Float.nan)

let kind_mismatch () =
  let r = fresh () in
  Metrics.incr ~registry:r "x";
  Alcotest.check_raises "gauge on counter"
    (Invalid_argument "metrics: x is not a gauge") (fun () ->
      Metrics.set_gauge ~registry:r "x" 1.0)

(* --- spans ----------------------------------------------------------- *)

let span_nesting () =
  Trace.enable ();
  let r =
    Trace.with_span "outer" (fun () ->
        check Alcotest.int "depth inside outer" 1 (Trace.depth ());
        Trace.with_span "inner" (fun () ->
            check Alcotest.int "depth inside inner" 2 (Trace.depth ());
            17))
  in
  check Alcotest.int "return value" 17 r;
  check Alcotest.int "depth restored" 0 (Trace.depth ());
  let events = Trace.events () in
  check Alcotest.int "two complete events" 2 (List.length events);
  let find name = List.find (fun e -> e.Trace.ev_name = name) events in
  let outer = find "outer" and inner = find "inner" in
  check Alcotest.bool "inner starts after outer" true (inner.Trace.ev_ts >= outer.Trace.ev_ts);
  check Alcotest.bool "inner contained in outer" true
    (inner.Trace.ev_ts +. inner.Trace.ev_dur
    <= outer.Trace.ev_ts +. outer.Trace.ev_dur +. 1e-6);
  check Alcotest.bool "alloc arg recorded" true
    (List.mem_assoc "alloc_bytes" outer.Trace.ev_args);
  Trace.disable ()

let span_exception_safety () =
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  check Alcotest.int "depth restored after raise" 0 (Trace.depth ());
  let events = Trace.events () in
  check Alcotest.int "span still recorded" 1 (List.length events);
  check Alcotest.bool "error arg set" true
    (List.mem_assoc "error" (List.hd events).Trace.ev_args);
  Trace.disable ()

let disabled_sink_records_nothing () =
  Trace.disable ();
  Trace.reset ();
  Trace.with_span "ghost" (fun () -> Trace.instant "ghost-instant");
  check Alcotest.int "no events when disabled" 0 (List.length (Trace.events ()))

(* A flow phase that raises mid-pipeline must leave the trace sink
   well-formed: no dangling span depth, the raising span recorded with
   its error argument (the Fun.protect in Trace.with_span), and the
   journal still holding the phase-start entries. *)
let raising_flow_phase_is_exception_safe () =
  Trace.enable ();
  Obs.Journal.reset ();
  (match Umlfront_core.Flow.run (Lint_mutants.mut_unknown_callee (Lint_mutants.crane ())) with
  | _ -> Alcotest.fail "a model with an unknown callee must be rejected"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "depth restored after raising phase" 0 (Trace.depth ());
  let errored =
    List.filter (fun e -> List.mem_assoc "error" e.Trace.ev_args) (Trace.events ())
  in
  check Alcotest.bool "raising phase recorded with an error arg" true (errored <> []);
  check Alcotest.bool "phase starts journaled up to the failure" true
    (Obs.Journal.filter ~kind:"flow" (Obs.Journal.entries ()) <> []);
  Trace.disable ()

(* --- Chrome trace JSON shape ----------------------------------------- *)

let chrome_trace_shape () =
  Trace.enable ();
  Trace.with_span ~cat:"flow" "phase" (fun () -> Trace.instant "tick");
  let r = fresh () in
  Metrics.incr ~registry:r "n";
  Metrics.observe ~registry:r "h" 1.0;
  let doc = Trace.to_json ~metrics:(Metrics.snapshot ~registry:r ()) () in
  Trace.disable ();
  let events = Json.items (Option.get (Json.member "traceEvents" doc)) in
  check Alcotest.int "two trace events" 2 (List.length events);
  let phases =
    List.filter_map
      (fun e -> match Json.member "ph" e with Some (Json.String s) -> Some s | _ -> None)
      events
  in
  check Alcotest.bool "has complete + instant phases" true
    (List.mem "X" phases && List.mem "i" phases);
  List.iter
    (fun e ->
      List.iter
        (fun key ->
          check Alcotest.bool (key ^ " present") true (Json.member key e <> None))
        [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ])
    events;
  (match Json.member "otherData" doc with
  | Some other ->
      let metrics = Json.items (Option.get (Json.member "metrics" other)) in
      check Alcotest.int "metrics snapshot embedded" 2 (List.length metrics);
      List.iter
        (fun m ->
          match Json.member "kind" m with
          | Some (Json.String ("counter" | "gauge" | "histogram")) -> ()
          | _ -> Alcotest.fail "metric kind missing")
        metrics
  | None -> Alcotest.fail "otherData missing");
  (* ts must be sorted ascending, as Perfetto expects for X events. *)
  let ts =
    List.filter_map
      (fun e -> match Json.member "ts" e with Some (Json.Float t) -> Some t | _ -> None)
      events
  in
  check Alcotest.bool "timestamps sorted" true (List.sort Float.compare ts = ts)

let events_api_logs_and_traces () =
  Trace.enable ();
  Obs.Events.emit ~fields:[ ("k", Json.Int 3) ] "something.happened";
  let events = Trace.events () in
  check Alcotest.int "instant event recorded" 1 (List.length events);
  check Alcotest.string "event name" "something.happened" (List.hd events).Trace.ev_name;
  Trace.disable ()

let metrics_table_renders () =
  let r = fresh () in
  Metrics.incr ~registry:r ~by:3 "flow.runs";
  Metrics.observe ~registry:r "lat" 1.0;
  Metrics.observe ~registry:r "lat" 3.0;
  let table = Metrics.table (Metrics.snapshot ~registry:r ()) in
  check Alcotest.bool "has counter row" true (Astring_contains.contains table "flow.runs");
  check Alcotest.bool "has histogram row" true (Astring_contains.contains table "histogram")

(* --- OpenMetrics exposition ------------------------------------------ *)

let openmetrics_rendering () =
  let r = fresh () in
  Metrics.incr ~registry:r ~by:5 "flow.runs";
  Metrics.set_gauge ~registry:r "queue len" 2.5;
  Metrics.observe ~registry:r "lat" 1.0;
  Metrics.observe ~registry:r "lat" 3.0;
  let out = Obs.Openmetrics.render (Metrics.snapshot ~registry:r ()) in
  check Alcotest.bool "counter TYPE line" true
    (contains out "# TYPE umlfront_flow_runs counter");
  check Alcotest.bool "counter sample has _total suffix" true
    (contains out "umlfront_flow_runs_total 5\n");
  check Alcotest.bool "gauge sanitizes spaces" true
    (contains out "umlfront_queue_len 2.5\n");
  check Alcotest.bool "histogram is a summary" true
    (contains out "# TYPE umlfront_lat summary");
  check Alcotest.bool "median quantile series" true
    (contains out "umlfront_lat{quantile=\"0.5\"} 2\n");
  check Alcotest.bool "summary count" true (contains out "umlfront_lat_count 2\n");
  check Alcotest.bool "sum is mean times count" true (contains out "umlfront_lat_sum 4\n");
  check Alcotest.bool "ends with EOF marker" true
    (String.length out >= 6 && String.sub out (String.length out - 6) 6 = "# EOF\n")

let openmetrics_labels () =
  let lab = Obs.Openmetrics.labeled in
  check Alcotest.string "no labels is the bare name" "serve.requests"
    (lab "serve.requests" []);
  check Alcotest.string "label block" "serve.requests{endpoint=\"/api/lint\",status=\"200\"}"
    (lab "serve.requests" [ ("endpoint", "/api/lint"); ("status", "200") ]);
  let r = fresh () in
  Metrics.incr ~registry:r ~by:5 "serve.requests";
  Metrics.incr ~registry:r ~by:3
    (lab "serve.requests" [ ("endpoint", "/api/lint"); ("status", "200") ]);
  Metrics.set_gauge ~registry:r (lab "serve.g" [ ("path", "a\\b\"c\nd") ]) 1.0;
  let out = Obs.Openmetrics.render (Metrics.snapshot ~registry:r ()) in
  check Alcotest.bool "family TYPE line emitted once" true
    (contains out "# TYPE umlfront_serve_requests counter"
    && not
         (contains out
            "# TYPE umlfront_serve_requests counter\n\
             umlfront_serve_requests_total 5\n\
             # TYPE"));
  check Alcotest.bool "_total lands before the label block" true
    (contains out "umlfront_serve_requests_total{endpoint=\"/api/lint\",status=\"200\"} 3\n");
  check Alcotest.bool "unlabeled line unchanged next to labeled ones" true
    (contains out "umlfront_serve_requests_total 5\n");
  check Alcotest.bool "label values escape backslash, quote, newline" true
    (contains out "umlfront_serve_g{path=\"a\\\\b\\\"c\\nd\"} 1\n")

(* --- rolling window -------------------------------------------------- *)

(* Deterministic rotation and expiry under an injected clock: data can
   only ever disappear by being outside the queried window or by being
   overwritten a full lap later — never by clock motion alone. *)
let window_rotation_and_expiry () =
  let now = ref 0.5 in
  let w = Obs.Window.create ~clock:(fun () -> !now) ~bucket_s:1.0 ~buckets:4 () in
  check feq "bucket_s" 1.0 (Obs.Window.bucket_s w);
  check Alcotest.int "buckets" 4 (Obs.Window.buckets w);
  check feq "max window" 4.0 (Obs.Window.max_window_s w);
  Obs.Window.add w "req";
  now := 1.5;
  Obs.Window.add ~by:2 w "req";
  Obs.Window.observe w "lat" 100.0;
  Obs.Window.observe w "lat" 300.0;
  check Alcotest.int "4s window sums both buckets" 3
    (Obs.Window.sum w ~window_s:4.0 "req");
  check Alcotest.int "1s window sees only the live bucket" 2
    (Obs.Window.sum w ~window_s:1.0 "req");
  check feq "rate divides by the window" 0.75 (Obs.Window.rate w ~window_s:4.0 "req");
  check (Alcotest.list Alcotest.string) "names are sorted and uniq"
    [ "lat"; "req" ]
    (Obs.Window.names w ~window_s:4.0);
  let q = Obs.Window.quantiles w ~window_s:4.0 "lat" in
  check Alcotest.int "quantile sample count" 2 q.Obs.Window.q_count;
  check feq "p50 interpolates" 200.0 q.Obs.Window.q_p50;
  (* Two empty buckets later the old data is out of short windows but
     still inside the full ring... *)
  now := 3.5;
  check Alcotest.int "2s window excludes the old buckets" 0
    (Obs.Window.sum w ~window_s:2.0 "req");
  check Alcotest.int "full window still sees everything" 3
    (Obs.Window.sum w ~window_s:4.0 "req");
  (* ...and one lap later the slot is recycled: the expired count can
     never resurface, even though it shares the ring slot. *)
  now := 4.5;
  Obs.Window.add ~by:5 w "req";
  check Alcotest.int "recycled slot holds only the new lap" 7
    (Obs.Window.sum w ~window_s:4.0 "req");
  now := 9.5;
  check Alcotest.int "fully idle ring reads as zero" 0
    (Obs.Window.sum w ~window_s:4.0 "req");
  check Alcotest.int "quantiles of an empty window count zero" 0
    (Obs.Window.quantiles w ~window_s:4.0 "lat").Obs.Window.q_count

let window_json_shape () =
  let now = ref 2.0 in
  let w = Obs.Window.create ~clock:(fun () -> !now) ~bucket_s:1.0 ~buckets:8 () in
  Obs.Window.add w "/api/lint";
  Obs.Window.observe w "/api/lint" 150.0;
  let j = Json.parse_exn (Json.to_string (Obs.Window.to_json ~windows:[ 4.0 ] w)) in
  let num doc key = Option.bind (Json.member key doc) Json.number in
  check (Alcotest.option feq) "bucket_s" (Some 1.0) (num j "bucket_s");
  match Json.items (Option.get (Json.member "windows" j)) with
  | [ win ] ->
      check (Alcotest.option feq) "window_s" (Some 4.0) (num win "window_s");
      let ep =
        Option.get
          (Json.member "/api/lint" (Option.get (Json.member "series" win)))
      in
      check (Alcotest.option feq) "count" (Some 1.0) (num ep "count");
      check (Alcotest.option feq) "rate" (Some 0.25) (num ep "rate");
      check (Alcotest.option feq) "p95 present with samples" (Some 150.0)
        (num ep "p95")
  | _ -> Alcotest.fail "expected exactly one window object"

(* The central window invariant, property-tested: for any event
   sequence and any query instant, [sum] equals the model count of
   events that are (a) within the queried window, (b) not overwritten
   by a later lap of the ring.  Never more, never less — an expired
   bucket can never leak back in. *)
let window_sum_matches_model =
  let bucket_s = 1.0 and buckets = 8 in
  let gen =
    QCheck.make
      ~print:(fun (events, q) ->
        Printf.sprintf "events=%s query=+%d"
          (String.concat ";" (List.map string_of_int events))
          q)
      QCheck.Gen.(pair (list_size (0 -- 40) (0 -- 30)) (0 -- 10))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"window sum = model of live in-window events" ~count:200 gen
       (fun (offsets, query_delta) ->
         (* Event times must ascend for the ring model to apply (a real
            clock is monotonic): sort the generated offsets. *)
         let offsets = List.sort compare offsets in
         let now = ref 0.0 in
         let w =
           Obs.Window.create ~clock:(fun () -> !now) ~bucket_s ~buckets ()
         in
         List.iter
           (fun o ->
             now := (float_of_int o +. 0.5);
             Obs.Window.add w "e")
           offsets;
         let t_query =
           (match List.rev offsets with [] -> 0 | last :: _ -> last) + query_delta
         in
         now := float_of_int t_query +. 0.5;
         let window_s = 4.0 in
         (* Model: bucket index = offset; a bucket survives if its ring
            slot was not claimed by a later bucket index. *)
         let slot_final = Hashtbl.create 16 in
         List.iter
           (fun o -> Hashtbl.replace slot_final (o mod buckets) o)
           offsets;
         let expected =
           List.length
             (List.filter
                (fun o ->
                  o > t_query - 4 && o <= t_query
                  && Hashtbl.find_opt slot_final (o mod buckets) = Some o)
                offsets)
         in
         Obs.Window.sum w ~window_s "e" = expected))

(* --- run journal ----------------------------------------------------- *)

let journal_records_and_filters () =
  Obs.Journal.reset ();
  Obs.Journal.record "alpha";
  Obs.Journal.record ~fields:[ ("rounds", Json.Int 3) ] "exec.run";
  Obs.Journal.record "exec.done";
  Obs.Journal.record "executioner";
  let es = Obs.Journal.entries () in
  check Alcotest.int "all four entries" 4 (List.length es);
  check Alcotest.bool "sequence numbers ascend" true
    (List.for_all2
       (fun e i -> e.Obs.Journal.j_seq = i)
       es
       (List.init 4 (fun i -> i)));
  let execs = Obs.Journal.filter ~kind:"exec" es in
  check Alcotest.int "prefix filter matches dotted kinds only" 2 (List.length execs);
  check Alcotest.int "exact filter" 1
    (List.length (Obs.Journal.filter ~kind:"alpha" es));
  let jsonl = Obs.Journal.to_jsonl es in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  check Alcotest.int "one JSONL line per entry" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok doc ->
          check Alcotest.bool "line has a kind" true (Json.member "kind" doc <> None)
      | Error e -> Alcotest.fail e)
    lines

let journal_ring_wraps_and_counts_drops () =
  Obs.Journal.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Obs.Journal.set_capacity Obs.Journal.default_capacity)
    (fun () ->
      for i = 1 to 6 do
        Obs.Journal.record (Printf.sprintf "k%d" i)
      done;
      let es = Obs.Journal.entries () in
      check Alcotest.int "ring keeps the newest capacity entries" 4 (List.length es);
      check Alcotest.string "oldest surviving entry" "k3"
        (List.hd es).Obs.Journal.j_kind;
      check Alcotest.string "newest entry" "k6"
        (List.nth es 3).Obs.Journal.j_kind;
      check Alcotest.int "dropped entries counted" 2 (Obs.Journal.dropped ()))

(* Every journal stamps against one process-wide origin, so entries of
   sinks created at different times compare and a merge into a full
   ring drops the oldest, not whichever sink was created last. *)
let journal_merge_keeps_newest () =
  let ring = Obs.Journal.create ~capacity:8 () in
  Unix.sleepf 0.02;
  for i = 1 to 8 do
    Obs.Journal.record_in ring (Printf.sprintf "old.%d" i)
  done;
  let fresh = Obs.Journal.create () in
  Unix.sleepf 0.001;
  Obs.Journal.record_in fresh "new.1";
  Obs.Journal.record_in fresh "new.2";
  Obs.Journal.merge ~into:ring fresh;
  let kinds = List.map (fun e -> e.Obs.Journal.j_kind) (Obs.Journal.entries_in ring) in
  check Alcotest.int "ring stays at capacity" 8 (List.length kinds);
  check Alcotest.(list string) "both new entries kept" [ "new.1"; "new.2" ]
    (List.filter (String.starts_with ~prefix:"new.") kinds)

(* --- bench regression gate ------------------------------------------- *)

let obs_bench_doc blocks =
  Json.Obj
    [
      ("schema", Json.String "umlfront-bench-obs/1");
      ( "cases",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "crane");
                ("blocks_per_s_parsed", Json.Float blocks);
                ("actor_firings_per_s", Json.Float 1000.0);
              ];
          ] );
    ]

let bench_diff_flags_regressions () =
  let module BD = Obs.Bench_diff in
  let diff current =
    match BD.compare_docs ~base:(obs_bench_doc 100.0) ~current () with
    | Ok findings -> findings
    | Error e -> Alcotest.fail e
  in
  (* -30% throughput against the default 25% tolerance: regression. *)
  (match BD.regressions (diff (obs_bench_doc 70.0)) with
  | [ f ] ->
      check Alcotest.string "metric name" "crane.blocks_per_s" f.BD.f_metric;
      check feq "delta" (-30.0) f.BD.f_delta_pct
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  check Alcotest.int "-10%% is within tolerance" 0
    (List.length (BD.regressions (diff (obs_bench_doc 90.0))));
  check Alcotest.int "+40%% is an improvement, not a regression" 0
    (List.length (BD.regressions (diff (obs_bench_doc 140.0))));
  let rendered = BD.render ~tolerance:BD.default_tolerance (diff (obs_bench_doc 70.0)) in
  check Alcotest.bool "render names the verdict" true (contains rendered "REGRESSION")

let parallel_bench_doc ~ms ~identical =
  Json.Obj
    [
      ("schema", Json.String "umlfront-bench-parallel/1");
      ( "dse",
        Json.Obj
          [
            ( "sweeps",
              Json.List
                [
                  Json.Obj
                    [
                      ("domains", Json.Int 2);
                      ("ms", Json.Float ms);
                      ("identical", Json.Bool identical);
                    ];
                ] );
          ] );
    ]

let bench_diff_parallel_schema () =
  let module BD = Obs.Bench_diff in
  let diff current =
    match
      BD.compare_docs ~base:(parallel_bench_doc ~ms:100.0 ~identical:true) ~current ()
    with
    | Ok findings -> BD.regressions findings
    | Error e -> Alcotest.fail e
  in
  (* Wall-clock is lower-better: +40% ms regresses, -40% ms does not. *)
  (match diff (parallel_bench_doc ~ms:140.0 ~identical:true) with
  | [ f ] -> check Alcotest.string "metric" "dse.2d.ms" f.BD.f_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  check Alcotest.int "faster is fine" 0
    (List.length (diff (parallel_bench_doc ~ms:60.0 ~identical:true)));
  (* Losing parallel determinism is always a regression. *)
  match diff (parallel_bench_doc ~ms:100.0 ~identical:false) with
  | [ f ] -> check Alcotest.string "metric" "dse.2d.identical" f.BD.f_metric
  | l -> Alcotest.failf "expected the identical-flag regression, got %d" (List.length l)

(* A parallel doc that records how many domains the runner had. *)
let parallel_bench_doc_hw ~hw ~ms ~identical =
  match parallel_bench_doc ~ms ~identical with
  | Json.Obj fields -> Json.Obj (("hardware_domains", Json.Int hw) :: fields)
  | _ -> assert false

(* Timing at 2 domains is only judged when both runners had 2 domains;
   the bit-identity flag is judged regardless.  An under-provisioned CI
   runner must leave the gate inert rather than failing it. *)
let bench_diff_skips_underprovisioned_sweeps () =
  let module BD = Obs.Bench_diff in
  let diff ~base ~current =
    match BD.compare_docs ~base ~current () with
    | Ok findings -> BD.regressions findings
    | Error e -> Alcotest.fail e
  in
  check Alcotest.int "1-core runner: 2-domain slowdown not judged" 0
    (List.length
       (diff
          ~base:(parallel_bench_doc_hw ~hw:1 ~ms:100.0 ~identical:true)
          ~current:(parallel_bench_doc_hw ~hw:1 ~ms:500.0 ~identical:true)));
  check Alcotest.int "either side under-provisioned skips too" 0
    (List.length
       (diff
          ~base:(parallel_bench_doc_hw ~hw:4 ~ms:100.0 ~identical:true)
          ~current:(parallel_bench_doc_hw ~hw:1 ~ms:500.0 ~identical:true)));
  (match
     diff
       ~base:(parallel_bench_doc_hw ~hw:4 ~ms:100.0 ~identical:true)
       ~current:(parallel_bench_doc_hw ~hw:4 ~ms:500.0 ~identical:true)
   with
  | [ f ] -> check Alcotest.string "provisioned runner is judged" "dse.2d.ms" f.BD.f_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  match
    diff
      ~base:(parallel_bench_doc_hw ~hw:1 ~ms:100.0 ~identical:true)
      ~current:(parallel_bench_doc_hw ~hw:1 ~ms:100.0 ~identical:false)
  with
  | [ f ] ->
      check Alcotest.string "identity judged even under-provisioned"
        "dse.2d.identical" f.BD.f_metric
  | l -> Alcotest.failf "expected the identical-flag regression, got %d" (List.length l)

let exec_compiled_doc ~hw ~vs_seq_1d ~ms_2d ~identical =
  let sweep domains ms speedup vs_seq =
    Json.Obj
      [
        ("domains", Json.Int domains);
        ("ms", Json.Float ms);
        ("speedup", Json.Float speedup);
        ("speedup_vs_seq", Json.Float vs_seq);
        ("identical", Json.Bool identical);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "umlfront-bench-exec-compiled/1");
      ("hardware_domains", Json.Int hw);
      ("exec_seq_ms", Json.Float 100.0);
      ( "compiled",
        Json.Obj
          [
            ( "sweeps",
              Json.List
                [
                  sweep 1 (100.0 /. vs_seq_1d) 1.0 vs_seq_1d;
                  sweep 2 ms_2d ((100.0 /. vs_seq_1d) /. ms_2d) (100.0 /. ms_2d);
                ] );
          ] );
    ]

let bench_diff_exec_compiled_schema () =
  let module BD = Obs.Bench_diff in
  let base = exec_compiled_doc ~hw:1 ~vs_seq_1d:2.0 ~ms_2d:30.0 ~identical:true in
  let diff current =
    match BD.compare_docs ~base ~current () with
    | Ok findings -> BD.regressions findings
    | Error e -> Alcotest.fail e
  in
  check Alcotest.int "steady numbers pass" 0
    (List.length (diff (exec_compiled_doc ~hw:1 ~vs_seq_1d:2.0 ~ms_2d:30.0 ~identical:true)));
  (* The compiled-over-sequential ratio at 1 domain is two sequential
     runs on the same machine: judged even on a 1-core runner. *)
  (match diff (exec_compiled_doc ~hw:1 ~vs_seq_1d:0.9 ~ms_2d:30.0 ~identical:true) with
  | l ->
      check Alcotest.bool "collapsed 1d vs-seq ratio regresses" true
        (List.exists (fun f -> f.BD.f_metric = "compiled.1d.speedup_vs_seq") l));
  (* 2-domain timing is hardware-gated like the parallel schema... *)
  check Alcotest.int "1-core runner: 2-domain slowdown not judged" 0
    (List.length
       (List.filter
          (fun f -> f.BD.f_metric = "compiled.2d.ms")
          (diff (exec_compiled_doc ~hw:1 ~vs_seq_1d:2.0 ~ms_2d:300.0 ~identical:true))));
  (* ...but the bit-identity flag never is. *)
  match diff (exec_compiled_doc ~hw:1 ~vs_seq_1d:2.0 ~ms_2d:30.0 ~identical:false) with
  | l ->
      check Alcotest.bool "divergence regresses" true
        (List.exists (fun f -> f.BD.f_metric = "compiled.2d.identical") l)

let bench_diff_rejects_foreign_documents () =
  let module BD = Obs.Bench_diff in
  let expect_error ~base ~current hint =
    match BD.compare_docs ~base ~current () with
    | Ok _ -> Alcotest.fail "expected an error"
    | Error e -> check Alcotest.bool ("error mentions " ^ hint) true (contains e hint)
  in
  expect_error ~base:(Json.Obj []) ~current:(obs_bench_doc 1.0) "schema";
  expect_error
    ~base:(obs_bench_doc 1.0)
    ~current:(parallel_bench_doc ~ms:1.0 ~identical:true)
    "mismatch";
  expect_error
    ~base:(Json.Obj [ ("schema", Json.String "nope/9") ])
    ~current:(Json.Obj [ ("schema", Json.String "nope/9") ])
    "unknown";
  (* The served daemon is benchmarked by bench/e2e, not bench-diff. *)
  let serve = Json.Obj [ ("schema", Json.String "umlfront-bench-serve/1") ] in
  expect_error ~base:serve ~current:serve "unknown"

let suite =
  [
    ( "obs",
      [
        test "json escaping" json_escaping;
        test "json parse round-trips" json_parse_roundtrip;
        test "json parse rejects malformed input" json_parse_errors;
        test "counters and gauges" counters_and_gauges;
        test "histogram percentiles" histogram_percentiles;
        test "histogram merge overflow is unbiased" histogram_merge_overflow_is_unbiased;
        test "percentile edge cases" percentile_edge_cases;
        test "percentile tiny counts pinned" percentile_tiny_counts_pinned;
        test "kind mismatch rejected" kind_mismatch;
        test "span nesting" span_nesting;
        test "span exception safety" span_exception_safety;
        test "raising flow phase is exception safe" raising_flow_phase_is_exception_safe;
        test "disabled sink records nothing" disabled_sink_records_nothing;
        test "chrome trace shape" chrome_trace_shape;
        test "structured events reach the sink" events_api_logs_and_traces;
        test "metrics table renders" metrics_table_renders;
        test "openmetrics rendering" openmetrics_rendering;
        test "openmetrics labels" openmetrics_labels;
        test "window rotation and expiry" window_rotation_and_expiry;
        test "window json shape" window_json_shape;
        window_sum_matches_model;
        test "journal records and filters" journal_records_and_filters;
        test "journal ring wraps" journal_ring_wraps_and_counts_drops;
        test "journal merge keeps the newest entries" journal_merge_keeps_newest;
        test "bench-diff flags regressions" bench_diff_flags_regressions;
        test "bench-diff parallel schema" bench_diff_parallel_schema;
        test "bench-diff skips under-provisioned sweeps"
          bench_diff_skips_underprovisioned_sweeps;
        test "bench-diff exec-compiled schema" bench_diff_exec_compiled_schema;
        test "bench-diff rejects foreign documents" bench_diff_rejects_foreign_documents;
      ] );
  ]
