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

(* The encoder as it was before it copied unescaped runs whole and
   called the float primitive directly: its bytes are the contract. *)
let old_string s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let old_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6f" f

let float_specials =
  [
    0.; -0.; 1.; -1.; 1e15; -1e15; 1e15 -. 1.; 999_999_999_999_999.5; 1e-7; -1e-7; 0.5;
    -2.5; 1e-6; 5e-7; 4.9e-324; -4.9e-324; Float.min_float /. 3.; Float.min_float;
    Float.max_float; -.Float.max_float; Float.nan; -.Float.nan; Float.infinity;
    Float.neg_infinity;
  ]

let json_encoder_all_bytes_and_specials () =
  let every_byte = String.init 256 Char.chr in
  check Alcotest.string "every byte value" (old_string every_byte)
    (Json.to_string (Json.String every_byte));
  String.iter
    (fun c ->
      let s = String.make 1 c in
      check Alcotest.string (Printf.sprintf "byte %d" (Char.code c)) (old_string s)
        (Json.to_string (Json.String s)))
    every_byte;
  List.iter
    (fun f ->
      check Alcotest.string (Printf.sprintf "%h" f) (old_float f)
        (Json.to_string (Json.Float f)))
    float_specials

let json_encoder_keeps_its_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json strings and floats encode to the old encoder's bytes"
       ~count:500
       (QCheck.make
          ~print:(fun (s, f) -> Printf.sprintf "%S %h" s f)
          QCheck.Gen.(
            pair
              (string_size ~gen:char (0 -- 64))
              (oneof
                 [
                   oneofl float_specials;
                   float;
                   map float_of_int int;
                   map (fun n -> float_of_int n /. 1000.) (int_range (-1_000_000) 1_000_000);
                 ])))
       (fun (s, f) ->
         Json.to_string (Json.String s) = old_string s
         && Json.to_string (Json.Float f) = old_float f))

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

(* The bottom-k sample a merge keeps, written out as the oracle: the
   first [max_samples] of the pooled samples in ([sample_key], value)
   order. *)
let bottom_k pooled =
  let keyed = Array.map (fun v -> (Metrics.sample_key v, v)) pooled in
  Array.sort
    (fun (ka, a) (kb, b) -> match Int.compare ka kb with 0 -> Float.compare a b | c -> c)
    keyed;
  Array.map snd (Array.sub keyed 0 (min (Array.length keyed) Metrics.max_samples))

(* The snapshot of one histogram "h" whose exact summaries cover
   [observed] and whose kept sample is [kept]. *)
let expected_snapshot ~observed ~kept =
  if observed = [||] then []
  else
    let sorted = Array.copy kept in
    Array.sort Float.compare sorted;
    let count = Array.length observed in
    let sum = Array.fold_left ( +. ) 0.0 observed in
    [
      {
        Metrics.s_name = "h";
        s_kind = "histogram";
        s_count = count;
        s_value = sum /. float_of_int count;
        s_min = Array.fold_left Float.min Float.infinity observed;
        s_max = Array.fold_left Float.max Float.neg_infinity observed;
        s_p50 = Metrics.percentile sorted 50.0;
        s_p95 = Metrics.percentile sorted 95.0;
        s_p99 = Metrics.percentile sorted 99.0;
      };
    ]

let observed_into r xs =
  Array.iter (Metrics.observe ~registry:r "h") xs;
  r

(* Random sources merged in a random order, nested: each step merges a
   random registry into another, which may itself have received
   merges, until one is left.  Its snapshot must be the one the oracle
   computes from the samples each source keeps, its most recent
   [max_samples].  The values are sixteenths, so every order of
   summation is exact, and a quarter of them repeat one of eight
   values. *)
let merge_keeps_the_bottom_k =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"nested merges keep the bottom-k of every source's samples"
       ~count:25
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let sample () =
           if Random.State.int st 4 = 0 then float_of_int (Random.State.int st 8)
           else float_of_int (Random.State.int st (1 lsl 20)) /. 16.0
         in
         let sources =
           List.init
             (1 + Random.State.int st 8)
             (fun _ ->
               let n =
                 if Random.State.int st 8 = 0 then
                   Metrics.max_samples + 1 + Random.State.int st 4_000
                 else Random.State.int st 3_001
               in
               Array.init n (fun _ -> sample ()))
         in
         let rec fold = function
           | [ r ] -> r
           | rs ->
               let n = List.length rs in
               let i = Random.State.int st n in
               let j = (i + 1 + Random.State.int st (n - 1)) mod n in
               Metrics.merge ~into:(List.nth rs i) (List.nth rs j);
               fold (List.filteri (fun k _ -> k <> j) rs)
         in
         let merged = fold (List.map (fun xs -> observed_into (fresh ()) xs) sources) in
         let ring xs =
           let n = Array.length xs in
           let kept = min n Metrics.max_samples in
           Array.sub xs (n - kept) kept
         in
         Metrics.snapshot ~registry:merged ()
         = expected_snapshot ~observed:(Array.concat sources)
             ~kept:(bottom_k (Array.concat (List.map ring sources)))))

(* Observations into a histogram that a merge has filled are offered
   to its heap: merging 8192 samples from [0, 1) and observing 8192
   from [10, 11) keeps the same sample in either order. *)
let observe_after_merge_is_order_independent () =
  let st = Random.State.make [| 11 |] in
  let draw lo =
    Array.init Metrics.max_samples (fun _ ->
        lo +. (float_of_int (Random.State.int st (1 lsl 20)) /. float_of_int (1 lsl 20)))
  in
  let low = draw 0.0 and high = draw 10.0 in
  let source = observed_into (fresh ()) low in
  let a = fresh () in
  Metrics.merge ~into:a source;
  ignore (observed_into a high : Metrics.t);
  let b = observed_into (fresh ()) high in
  Metrics.merge ~into:b source;
  let sa = Metrics.snapshot ~registry:a () in
  check Alcotest.bool "merge then observe = observe then merge" true
    (sa = Metrics.snapshot ~registry:b ());
  check Alcotest.bool "both keep the bottom-k of all samples" true
    (sa
    = expected_snapshot ~observed:(Array.append low high)
        ~kept:(bottom_k (Array.append low high)))

(* A merge costs the source's samples, not the destination's ring; a
   fresh histogram does not start at [max_samples] slots.  OCaml 5
   adds words allocated straight into the major heap to its count only
   at the end of a major slice, so a full collection first keeps the
   set-up's arrays out of the count. *)
let histogram_allocation_bounds () =
  let words f =
    Gc.full_major ();
    fst (Allocation.words f)
  in
  let st = Random.State.make [| 3 |] in
  let filled n =
    observed_into (fresh ()) (Array.init n (fun _ -> Random.State.float st 1000.0))
  in
  let root = fresh () in
  Metrics.merge ~into:root (filled Metrics.max_samples);
  let child = filled 500 in
  let w = words (fun () -> Metrics.merge ~into:root child) in
  if w >= 20_000.0 then
    Alcotest.failf "merging 500 samples into a full heap allocated %.0f words" w;
  let r = fresh () in
  let w = words (fun () -> Metrics.observe ~registry:r "h" 1.0) in
  if w >= 1_000.0 then
    Alcotest.failf "the first observe into a fresh registry allocated %.0f words" w

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
        merge_keeps_the_bottom_k;
        test "observe after a merge is order-independent"
          observe_after_merge_is_order_independent;
        test "histogram allocation bounds" histogram_allocation_bounds;
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
        test "journal records and filters" journal_records_and_filters;
        test "journal ring wraps" journal_ring_wraps_and_counts_drops;
        test "journal merge keeps the newest entries" journal_merge_keeps_newest;
        test "bench-diff flags regressions" bench_diff_flags_regressions;
        test "bench-diff parallel schema" bench_diff_parallel_schema;
        test "bench-diff skips under-provisioned sweeps"
          bench_diff_skips_underprovisioned_sweeps;
        test "bench-diff exec-compiled schema" bench_diff_exec_compiled_schema;
        test "bench-diff rejects foreign documents" bench_diff_rejects_foreign_documents;
        test "json encoder: every byte value and float special as before"
          json_encoder_all_bytes_and_specials;
        json_encoder_keeps_its_bytes;
      ] );
  ]
