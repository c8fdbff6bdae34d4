(* The served-compilation benchmark.

     main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
     main.exe --smoke
     main.exe --compare A.jsonl B.jsonl

   One run spawns `umlfront serve --port 0 --pool 2`, sets it up several
   times (spawn, /healthz, warm-up) and drives the last one closed-loop
   for [--seconds] from two client domains with one keep-alive
   connection each.  With [--trace 1] it then replays the head of the
   stream in-process with a span per layer call.  The last stdout line
   is one JSON object: the end-to-end metrics (trace 0) or the
   per-layer metrics (trace 1).  See README.md. *)

module R = Report

let setups = 3
let replay_sample = 300

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end (e : Loadgen.result) =
  [
    R.metric "setup_s" "s" (R.median e.Loadgen.setup_s);
    R.metric "req_per_s" "req/s"
      (float_of_int (e.Loadgen.measured - e.Loadgen.measured_failed) /. e.Loadgen.elapsed_s);
    R.metric "latency_p50_ms" "ms" (R.percentile e.Loadgen.lat_ms 50.);
    R.metric "latency_p99_ms" "ms" (R.percentile e.Loadgen.lat_ms 99.);
    R.metric "server_rss_peak_mb" "MB" e.Loadgen.rss_mb;
  ]

(* The flow's phases as its own spans time them.  [fsm] is left to the
   side table: it takes under a microsecond, below the resolution of
   those spans, so its p50 often reads 0. *)
let flow_phases = [ "validate"; "allocate"; "map"; "channels"; "barriers"; "layout"; "emit" ]

(* Layers whose time lands on one workload only: reported as their
   share of the replayed service time (exactly 0 where a workload never
   calls them), with per-call times in the side table. *)
let layer_shares =
  [
    ("analysis.lint.share", [ "analysis.lint.check" ]);
    ("dataflow.sdf.share", [ "dataflow.sdf.of_model" ]);
    ("dataflow.exec.share", [ "dataflow.exec.run" ]);
    ("codegen.share", [ "codegen.gen_threads"; "codegen.gen_java"; "codegen.gen_kpn" ]);
    ("conformance.share", [ "conformance.check" ]);
  ]

let per_call_layers =
  [
    "analysis.lint.check";
    "dataflow.sdf.of_model";
    "dataflow.exec.run";
    "dataflow.compiled.compile";
    "dataflow.compiled.run_plan";
    "codegen.gen_threads";
    "codegen.gen_java";
    "codegen.gen_kpn";
    "conformance.check";
  ]

(* Per-layer metrics: the BENCHMARK.json set first, then the side
   table (per-call times of the workload-specific layers, the
   attribution check, the cache cross-check counts). *)
let per_layer (e : Loadgen.result) (rp : Replay.t) =
  let samples = rp.Replay.samples in
  let times name =
    R.sorted_of_list
      (List.concat_map
         (fun (s : Replay.sample) ->
           List.filter_map
             (fun (n, us) -> if n = name then Some us else None)
             (s.Replay.self @ s.Replay.nested))
         samples)
  in
  let sum_self names =
    List.fold_left
      (fun acc (s : Replay.sample) ->
        List.fold_left
          (fun acc (n, us) -> if List.mem n names then acc +. us else acc)
          acc s.Replay.self)
      0. samples
  in
  let service = List.fold_left (fun acc (s : Replay.sample) -> acc +. s.Replay.service_us) 0. samples in
  let p50_p90 name t =
    [
      R.metric (name ^ "_us.p50") "us" (R.percentile t 50.);
      R.metric (name ^ "_us.p90") "us" (R.percentile t 90.);
    ]
  in
  let layer name = p50_p90 name (times name) in
  (* Service times of the measured part of the replay, or of all of it
     when the replay ended inside the warm-up (smoke runs). *)
  let service_times =
    R.sorted_of_list
      (List.map
         (fun (s : Replay.sample) -> s.Replay.service_us)
         (match List.filter (fun (s : Replay.sample) -> s.Replay.measured) samples with
         | [] -> samples
         | measured -> measured))
  in
  let bytes = List.fold_left (fun acc (s : Replay.sample) -> acc + s.Replay.xmi_bytes) 0 samples in
  let exec_us = sum_self [ "dataflow.exec.run" ] in
  let firings = List.fold_left (fun acc (s : Replay.sample) -> acc + s.Replay.firings) 0 samples in
  let all_self =
    List.fold_left
      (fun acc (s : Replay.sample) -> List.fold_left (fun acc (_, us) -> acc +. us) acc s.Replay.self)
      0. samples
  in
  let listed =
    layer "serve.http.decode"
    @ layer "serve.http.encode"
    @ layer "uml.xmi.parse"
    @ [ R.metric "uml.xmi.parse_mb_s" "MB/s" (float_of_int bytes /. sum_self [ "uml.xmi.parse" ]) ]
    @ layer "serve.api.cache_key"
    @ layer "serve.cache.find"
    @ layer "serve.cache.add"
    @ [
        R.metric "serve.cache.hit_ratio" "ratio"
          (e.Loadgen.hits /. Float.max 1. (e.Loadgen.hits +. e.Loadgen.misses));
        R.metric "serve.cache.evictions" "count" e.Loadgen.evictions;
      ]
    @ layer "obs.context.bracket"
    @ layer "serve.api.run"
    @ layer "serve.api.encode"
    @ layer "core.flow.run"
    @ List.map
        (fun p -> R.metric ("core.flow." ^ p ^ "_us.p50") "us" (R.percentile (times ("core.flow." ^ p)) 50.))
        flow_phases
    @ List.map (fun (name, layers) -> R.metric name "ratio" (sum_self layers /. service)) layer_shares
    @ [
        R.metric "dataflow.exec.firings_per_s" "1/s"
          (if exec_us > 0. then float_of_int firings /. exec_us *. 1e6 else 0.);
        R.metric "serve.request_bytes" "B" e.Loadgen.req_bytes;
        R.metric "serve.response_bytes" "B" e.Loadgen.resp_bytes;
      ]
    @ p50_p90 "replay.service" service_times
    @ [
        R.metric "serve.unattributed_us" "us"
          ((R.percentile e.Loadgen.lat_ms 50. *. 1e3) -. R.percentile service_times 50.);
        R.metric "replay.span_overhead_ratio" "ratio" rp.Replay.overhead_ratio;
        R.metric "loadgen.cpu_ms_per_req" "ms" e.Loadgen.client_cpu_ms_per_req;
      ]
  in
  let side =
    List.concat_map
      (fun name -> if Array.length (times name) = 0 then [] else layer name)
      per_call_layers
    @ [
        R.metric "core.flow.fsm_us.p50" "us" (R.percentile (times "core.flow.fsm") 50.);
        R.metric "replay.attribution_gap" "ratio" (Float.abs (all_self -. service) /. service);
        R.metric "replay.requests" "count" (float_of_int (List.length samples));
        R.metric "serve.cache.measured_hits" "count" e.Loadgen.hits;
        R.metric "serve.cache.measured_misses" "count" e.Loadgen.misses;
        R.metric "loadgen.other_cpu_share" "ratio" e.Loadgen.other_cpu_share;
        R.metric "loadgen.measured_requests" "count" (float_of_int e.Loadgen.measured);
      ]
  in
  (listed, side)

let busy_share = 0.1

(* One workload: the end-to-end run, then (traced) the replay. *)
let run_workload ~exe ~out ~seed ~seconds ~trace ~smoke (w : Workload.t) =
  let stream = w.Workload.stream ~seed in
  let e =
    Loadgen.run ~exe ~workload:w ~stream ~filler:(Workload.filler ~seed)
      ~fill_limit:(if smoke then 200 else 20_000)
      ~setups:(if smoke then 1 else setups)
      ~seconds
      ~count:(if smoke then 50 else 0)
      ~sample:replay_sample
  in
  let e2e = end_to_end e in
  (* The daemon's own cache counters must tell the workload's story. *)
  let hits, misses =
    if w.Workload.name = "edit-hit" then (float_of_int e.Loadgen.measured, 0.)
    else (0., float_of_int e.Loadgen.measured)
  in
  let cache_failures =
    if e.Loadgen.hits = hits && e.Loadgen.misses = misses then []
    else
      [
        ( -1,
          Printf.sprintf "daemon counted %.0f hits / %.0f misses, expected %.0f / %.0f"
            e.Loadgen.hits e.Loadgen.misses hits misses );
      ]
  in
  let layers, replay_failures, replayed =
    if not trace then (None, [], 0)
    else begin
      let count =
        if smoke then 12
        else w.Workload.warmup + min replay_sample e.Loadgen.measured
      in
      let served i =
        let r : Workload.request = stream i in
        Hashtbl.find_opt e.Loadgen.served (if r.Workload.slot >= 0 then r.Workload.slot else i)
      in
      let rp = Replay.run ~stream ~warmup:w.Workload.warmup ~count ~served in
      R.mkdir_p out;
      Out_channel.with_open_bin
        (Filename.concat out ("trace_" ^ w.Workload.name ^ ".json"))
        (fun oc -> output_string oc (Replay.chrome_json rp));
      (Some (per_layer e rp), rp.Replay.failures, count)
    end
  in
  let failures = e.Loadgen.failures @ cache_failures @ replay_failures in
  let attempted = e.Loadgen.attempted + replayed in
  let failed = List.length failures in
  List.iteri
    (fun k (i, why) -> if k < 5 then Printf.eprintf "FAIL %s request %d: %s\n%!" w.Workload.name i why)
    failures;
  let listed, side = Option.value layers ~default:([], []) in
  if not smoke then R.print_table ~workload:w.Workload.name (e2e @ listed @ side);
  let busy = e.Loadgen.other_cpu_share > busy_share in
  if busy && not smoke then
    Printf.eprintf "warning: %.0f%% of the CPU went to other processes during the run\n%!"
      (100. *. e.Loadgen.other_cpu_share);
  R.append_record
    (Filename.concat out "results.jsonl")
    (Umlfront_obs.Json.Obj
       [
         ("workload", Umlfront_obs.Json.String w.Workload.name);
         ("seed", Umlfront_obs.Json.Int seed);
         ("seconds", Umlfront_obs.Json.Float seconds);
         ("trace", Umlfront_obs.Json.Bool trace);
         ("attempted", Umlfront_obs.Json.Int attempted);
         ("failed", Umlfront_obs.Json.Int failed);
         ( "metrics",
           R.metrics_json
             (e2e @ listed @ side
             @ [ R.metric "fail_ratio" "ratio" (float_of_int failed /. float_of_int attempted) ]) );
         ("loadavg_start", Umlfront_obs.Json.String e.Loadgen.loadavg_start);
         ("loadavg_end", Umlfront_obs.Json.String e.Loadgen.loadavg_end);
         ("client_cpu_start_s", Umlfront_obs.Json.Float e.Loadgen.client_cpu_start_s);
         ("client_cpu_end_s", Umlfront_obs.Json.Float e.Loadgen.client_cpu_end_s);
         ("other_cpu_share", Umlfront_obs.Json.Float e.Loadgen.other_cpu_share);
         ("busy", Umlfront_obs.Json.Bool busy);
       ]);
  (failed = 0, attempted, failed, e2e, listed)

(* Every metric BENCHMARK.json names must be emitted, with its unit and
   a finite value. *)
let missing_metrics ~benchmark ~e2e ~listed =
  let spec = R.read_json benchmark in
  let names key = Umlfront_obs.Json.(items (Option.value ~default:Null (member key spec))) in
  let absent emitted m =
    let name = R.str "name" m and unit = R.str "unit" m in
    if
      List.exists
        (fun (x : R.metric) -> x.R.name = name && x.R.unit = unit && Float.is_finite x.R.value)
        emitted
    then None
    else Some (name ^ " [" ^ unit ^ "]")
  in
  List.filter_map (absent e2e) (names "end_to_end")
  @ List.filter_map (absent listed) (names "per_layer")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "_build/default/bin/umlfront.exe" and out = ref "_bench/e2e" in
  let benchmark = ref "BENCHMARK.json" and smoke = ref false and compare = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all) ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N input stream seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured-phase length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced replay");
      ("--umlfront", Arg.Set_string exe, "PATH the daemon binary");
      ("--out", Arg.Set_string out, "DIR where traces and results.jsonl go (default _bench/e2e)");
      ("--benchmark", Arg.Set_string benchmark, "FILE the metric definitions (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke, " ~50 requests per workload, traced; fail on any wrong answer or missing metric");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A B compare the end-to-end medians of two results files against the bounds" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  match !compare with
  | Some (a, b) -> exit (if R.compare ~benchmark:!benchmark a b then 0 else 1)
  | None -> (
      let workloads =
        if !workload = "" then Workload.all
        else
          match Workload.find !workload with
          | Some w -> [ w ]
          | None ->
              prerr_endline ("unknown workload " ^ !workload);
              exit 2
      in
      if not (Sys.file_exists !exe) then begin
        prerr_endline ("daemon binary not found: " ^ !exe);
        exit 2
      end;
      let traced = !trace = 1 || !smoke in
      match
        List.map
          (fun w ->
            let correct, attempted, failed, e2e, listed =
              run_workload ~exe:!exe ~out:!out ~seed:!seed ~seconds:!seconds ~trace:traced
                ~smoke:!smoke w
            in
            if !smoke then begin
              let missing = missing_metrics ~benchmark:!benchmark ~e2e ~listed in
              if missing <> [] then
                Printf.eprintf "%s: missing metrics: %s\n%!" w.Workload.name
                  (String.concat ", " missing);
              correct && missing = []
            end
            else begin
              print_endline
                (R.result_line ~correct ~attempted ~failed (if !trace = 1 then listed else e2e));
              correct
            end)
          workloads
      with
      | oks -> if !smoke && List.mem false oks then exit 1
      | exception e ->
          Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
          exit 1)
