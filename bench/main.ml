(* Benchmark and experiment harness.

   The paper's evaluation (Section 5) is qualitative: two case studies
   presented as figures.  Part 1 regenerates each figure's artifact and
   prints the measurable shape next to what the paper reports.  Part 2
   runs the ablation the paper argues for in §4.2.3 (linear clustering
   vs. naive allocations) over synthetic workloads.  Part 3 runs
   Bechamel micro-benchmarks of the tool chain itself (one Test.make
   per benched pipeline stage).  Part 4 runs the case-study flows under
   the Umlfront_obs instrumentation layer and writes BENCH_obs.json
   (per-phase ms, blocks/s parsed, actor firings/s) so later PRs have a
   perf trajectory to regress against, plus the instrumentation
   overhead on the synthetic flow.  Part 5 runs the multicore scaling
   study — DSE sweeps across 1/2/4 domains on random pipeline models,
   written to BENCH_parallel.json, and the compiled SDF executor
   against the sequential reference, written to
   BENCH_exec_compiled.json.  The served daemon is benchmarked end to
   end by bench/e2e (see bench/e2e/README.md).

   Flags: -v/--verbose (Logs to stderr), --smoke (small models/rounds,
   skip the Bechamel micro-benchmarks — what CI's bench-smoke job
   runs), -o/--output-dir DIR (where the BENCH_*.json files land,
   default "."). *)

module U = Umlfront_uml
module Core = Umlfront_core
module Model = Umlfront_simulink.Model
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Caam = Umlfront_simulink.Caam
module Parser = Umlfront_simulink.Mdl_parser
module G = Umlfront_taskgraph.Graph
module C = Umlfront_taskgraph.Clustering
module Lc = Umlfront_taskgraph.Linear_clustering
module Dsc = Umlfront_taskgraph.Dsc
module Ez = Umlfront_taskgraph.Edge_zeroing
module Baselines = Umlfront_taskgraph.Baselines
module Gen = Umlfront_taskgraph.Generator
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Compiled = Umlfront_dataflow.Compiled
module Timing = Umlfront_dataflow.Timing
module Cs = Umlfront_casestudies
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Pool = Umlfront_parallel.Pool

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

let expect label ~paper ~measured ok =
  Printf.printf "  %-46s paper: %-22s measured: %-22s %s\n" label paper measured
    (if ok then "[ok]" else "[MISMATCH]")

(* ------------------------------------------------------------------ *)
(* Part 1: figure reproductions                                       *)
(* ------------------------------------------------------------------ *)

let count_type (m : Model.t) path ty =
  let rec descend sys = function
    | [] -> List.length (S.blocks_of_type sys ty)
    | p :: rest -> (
        match (S.find_block_exn sys p).S.blk_system with
        | Some inner -> descend inner rest
        | None -> 0)
  in
  descend m.Model.root path

let fig3_didactic () =
  section "Fig. 3 — didactic mapping example";
  let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Didactic.model ()) in
  let m = out.Core.Flow.caam in
  expect "CPU subsystems at top level" ~paper:"2 (CPU1, CPU2)"
    ~measured:(string_of_int (List.length (Caam.cpus m)))
    (List.length (Caam.cpus m) = 2);
  expect "Product block in T1 (Platform.mult)" ~paper:"1"
    ~measured:(string_of_int (count_type m [ "CPU1"; "T1" ] B.Product))
    (count_type m [ "CPU1"; "T1" ] B.Product = 1);
  expect "S-functions in T1 (calc, dec)" ~paper:"2"
    ~measured:(string_of_int (count_type m [ "CPU1"; "T1" ] B.S_function))
    (count_type m [ "CPU1"; "T1" ] B.S_function = 2);
  expect "inter-CPU channels (GFIFO)" ~paper:"1"
    ~measured:(string_of_int out.Core.Flow.inter_channels)
    (out.Core.Flow.inter_channels = 1);
  expect "intra-CPU channels (SWFIFO)" ~paper:"1"
    ~measured:(string_of_int out.Core.Flow.intra_channels)
    (out.Core.Flow.intra_channels = 1);
  expect "system-level IO ports" ~paper:"in + out"
    ~measured:
      (Printf.sprintf "%d in, %d out"
         (List.length (S.blocks_of_type m.Model.root B.Inport))
         (List.length (S.blocks_of_type m.Model.root B.Outport)))
    (List.length (S.blocks_of_type m.Model.root B.Inport) = 1
    && List.length (S.blocks_of_type m.Model.root B.Outport) = 1)

let fig5_crane () =
  section "Fig. 4/5 — crane control system (temporal-barrier insertion)";
  let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
  let m = out.Core.Flow.caam in
  expect "threads on one processor" ~paper:"3 on 1 CPU"
    ~measured:
      (Printf.sprintf "%d on %d CPU"
         (List.length (Caam.thread_names m))
         (List.length (Caam.cpus m)))
    (List.length (Caam.thread_names m) = 3 && List.length (Caam.cpus m) = 1);
  expect "automatically inserted Delay" ~paper:"1 (in Tcontrol)"
    ~measured:
      (Printf.sprintf "%d (in Tcontrol: %d)" out.Core.Flow.delays_inserted
         (count_type m [ "CPU1"; "Tcontrol" ] B.Unit_delay))
    (out.Core.Flow.delays_inserted = 1
    && count_type m [ "CPU1"; "Tcontrol" ] B.Unit_delay = 1);
  expect "Tcontrol: one S-function + two library blocks" ~paper:"1 S-fn + 2 subsystems"
    ~measured:
      (Printf.sprintf "%d S-fn + %d library blocks"
         (count_type m [ "CPU1"; "Tcontrol" ] B.S_function)
         (count_type m [ "CPU1"; "Tcontrol" ] B.Sum
         + count_type m [ "CPU1"; "Tcontrol" ] B.Saturation))
    (count_type m [ "CPU1"; "Tcontrol" ] B.S_function = 1);
  let sdf = Sdf.of_model m in
  let outcome = Exec.run ~rounds:8 sdf in
  expect "generated model executes (rounds)" ~paper:"simulates in Simulink"
    ~measured:(string_of_int outcome.Exec.rounds)
    (outcome.Exec.rounds = 8)

let fig7_clustering () =
  section "Fig. 6/7 — synthetic example, automatic thread allocation";
  let uml = Cs.Synthetic_system.model () in
  let g = Core.Allocation.task_graph uml in
  let clustering = Lc.run g in
  print_string (Core.Report.clustering_table g clustering);
  let groups = List.map (List.sort compare) (C.groups clustering) in
  expect "number of clusters (CPUs)" ~paper:"4"
    ~measured:(string_of_int (List.length groups))
    (List.length groups = 4);
  expect "main chain A,B,C,D,F,J on one CPU" ~paper:"{A,B,C,D,F,J}"
    ~measured:(String.concat "," (List.nth groups 0))
    (List.nth groups 0 = [ "A"; "B"; "C"; "D"; "F"; "J" ]);
  expect "G and M share a CPU" ~paper:"{G,M}"
    ~measured:(if C.same_cluster clustering "G" "M" then "together" else "apart")
    (C.same_cluster clustering "G" "M");
  expect "critical path on a single CPU" ~paper:"yes (§4.2.3)"
    ~measured:(string_of_bool (C.critical_path_cluster g clustering))
    (C.critical_path_cluster g clustering)

let fig8_caam () =
  section "Fig. 8 — synthetic example, generated CAAM top level";
  let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear (Cs.Synthetic_system.model ()) in
  let m = out.Core.Flow.caam in
  expect "CPU-SS at top level" ~paper:"4"
    ~measured:(string_of_int (List.length (Caam.cpus m)))
    (List.length (Caam.cpus m) = 4);
  expect "inter-CPU channels inferred" ~paper:"present, GFIFO"
    ~measured:(Printf.sprintf "%d GFIFO" out.Core.Flow.inter_channels)
    (out.Core.Flow.inter_channels > 0);
  expect "CAAM checker" ~paper:"synthesizable input to the MPSoC flow"
    ~measured:
      (match Caam.check m with [] -> "passes" | l -> string_of_int (List.length l) ^ " gripes")
    (Caam.check m = []);
  expect "mdl regenerates and reparses" ~paper:".mdl for Simulink GUI"
    ~measured:"round-trips"
    (Model.stats (Parser.parse_string out.Core.Flow.mdl) = Model.stats m)

(* ------------------------------------------------------------------ *)
(* Part 2: ablations                                                  *)
(* ------------------------------------------------------------------ *)

let allocation_ablation () =
  section "Ablation §4.2.3 — allocation quality on random task graphs";
  row "  %-8s %-6s | %-16s | %-14s | %-14s | %-14s | %-14s\n" "nodes" "ccr" "metric"
    "linear" "dsc" "edge-zero" "round-robin-4";
  let configs = [ (12, 0.5); (12, 5.0); (60, 0.5); (60, 5.0); (150, 2.0) ] in
  List.iter
    (fun (size, ccr) ->
      let g =
        Gen.layered ~seed:(size + int_of_float (ccr *. 10.0)) ~layers:(max 3 (size / 8))
          ~width:8 ~edge_probability:0.35 ~ccr ()
      in
      let algos =
        [
          Lc.run g; Dsc.run g; Ez.run g; Baselines.round_robin ~cpus:4 g;
        ]
      in
      row "  %-8d %-6.1f | %-16s |" (G.node_count g) ccr "inter-volume";
      List.iter (fun c -> row " %-14.1f |" (C.inter_cluster_volume g c)) algos;
      row "\n  %-8s %-6s | %-16s |" "" "" "parallel time";
      List.iter (fun c -> row " %-14.1f |" (C.parallel_time g c)) algos;
      row "\n  %-8s %-6s | %-16s |" "" "" "clusters";
      List.iter (fun c -> row " %-14d |" (C.cluster_count c)) algos;
      row "\n")
    configs;
  print_endline
    "  shape check: linear clustering cuts inter-CPU volume vs. round-robin and\n\
    \  never exceeds the one-per-node parallel time (the paper's motivation)."

let timing_ablation () =
  section "Ablation — intra vs. inter CPU communication cost on the synthetic CAAM";
  let uml = Cs.Synthetic_system.model () in
  let run strategy label =
    let out = Core.Flow.run ~strategy uml in
    let sdf = Sdf.of_model out.Core.Flow.caam in
    let r = Timing.evaluate sdf in
    row "  %-22s cpus %-3d intra %-3d inter %-3d comm-cost %-8.1f makespan %-8.1f\n"
      label
      (List.length (Caam.cpus out.Core.Flow.caam))
      r.Timing.intra_tokens r.Timing.inter_tokens r.Timing.comm_cost r.Timing.makespan
  in
  run Core.Flow.Infer_linear "linear clustering";
  run (Core.Flow.Infer_bounded 2) "folded to 2 CPUs";
  run (Core.Flow.Infer_bounded 1) "single CPU";
  print_endline
    "  shape check: fewer CPUs trade inter-CPU (GFIFO) tokens for intra-CPU\n\
    \  (SWFIFO) ones; the single-CPU fold has zero GFIFO traffic."

let bounded_platform_ablation () =
  section "Ablation - clustering vs direct list scheduling on fixed platforms";
  row "  %-8s %-6s | %-10s | %-16s | %-16s | %-16s\n" "nodes" "procs" "ccr"
    "hlfet" "linear+fold" "round-robin";
  List.iter
    (fun (size, procs, ccr) ->
      let g =
        Gen.layered ~seed:(size * 7 + procs) ~layers:(max 3 (size / 8)) ~width:8
          ~edge_probability:0.35 ~ccr ()
      in
      let hlfet = (Umlfront_taskgraph.Schedule.hlfet ~processors:procs g).Umlfront_taskgraph.Schedule.makespan in
      let folded =
        (Umlfront_taskgraph.Schedule.of_clustering ~processors:procs g (Lc.run g))
          .Umlfront_taskgraph.Schedule.makespan
      in
      let rr = C.parallel_time g (Baselines.round_robin ~cpus:procs g) in
      row "  %-8d %-6d | %-10.1f | %-16.1f | %-16.1f | %-16.1f\n" (G.node_count g) procs
        ccr hlfet folded rr)
    [ (24, 2, 1.0); (24, 4, 1.0); (60, 4, 0.5); (60, 4, 5.0); (120, 8, 2.0) ];
  print_endline
    "  shape check: every informed mapper beats round-robin; task-level HLFET\n\
    \  outperforms the cruder fold-clusters-to-platform mapping, which is why\n\
    \  the paper leaves platform-bounded mapping to an estimation step (s6)."

let dse_sweep () =
  section "Extension (paper future work, DSE) - design-space exploration sweeps";
  let run name uml =
    Printf.printf "  %s:\n" name;
    print_string (Core.Dse.summary (Core.Dse.explore uml))
  in
  run "synthetic (12 threads)" (Cs.Synthetic_system.model ());
  run "mjpeg (4 threads)" (Cs.Mjpeg_system.model ());
  run "elevator (3 threads)" (Cs.Elevator_system.model ());
  print_endline
    "  shape check: makespan is monotone from over-folding to the platform the\n\
    \  clustering picks; the Pareto set exposes the CPU/latency trade-off."

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel micro-benchmarks                                  *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  section "Tool-chain micro-benchmarks (Bechamel, OLS ns/run)";
  let open Bechamel in
  let flow_test name uml_fn strategy =
    Test.make ~name (Staged.stage (fun () -> ignore (Core.Flow.run ~strategy (uml_fn ()))))
  in
  let synth n = Cs.Synthetic_system.scaled ~threads:n in
  let dag n = Gen.layered ~seed:n ~layers:(n / 8) ~width:8 ~edge_probability:0.35 ~ccr:1.0 () in
  let crane_caam =
    (Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ())).Core.Flow.caam
  in
  let synthetic_caam =
    (Core.Flow.run ~strategy:Core.Flow.Infer_linear (Cs.Synthetic_system.model ())).Core.Flow.caam
  in
  let synthetic_mdl = Umlfront_simulink.Mdl_writer.to_string synthetic_caam in
  let hier_chart =
    U.Statechart.make "bench"
      (U.Statechart.state ~kind:U.Statechart.Initial "i"
      :: List.init 6 (fun k ->
             U.Statechart.state
               (Printf.sprintf "s%d" k)
               ~children:
                 [
                   U.Statechart.state (Printf.sprintf "s%d_a" k);
                   U.Statechart.state (Printf.sprintf "s%d_b" k);
                 ]))
      (U.Statechart.transition ~source:"i" ~target:"s0" ()
      :: List.concat
           (List.init 6 (fun k ->
                [
                  U.Statechart.transition ~trigger:"next" ~source:(Printf.sprintf "s%d" k)
                    ~target:(Printf.sprintf "s%d" ((k + 1) mod 6))
                    ();
                  U.Statechart.transition ~trigger:"flip"
                    ~source:(Printf.sprintf "s%d_a" k)
                    ~target:(Printf.sprintf "s%d_b" k)
                    ();
                ])))
  in
  let tests =
    [
      flow_test "flow:didactic" Cs.Didactic.model Core.Flow.Use_deployment;
      flow_test "flow:crane" Cs.Crane_system.model Core.Flow.Use_deployment;
      flow_test "flow:synthetic12" Cs.Synthetic_system.model Core.Flow.Infer_linear;
      flow_test "flow:synthetic64" (fun () -> synth 64) Core.Flow.Infer_linear;
      flow_test "flow:synthetic128" (fun () -> synth 128) Core.Flow.Infer_linear;
      Test.make ~name:"cluster:linear-n64"
        (let g = dag 64 in
         Staged.stage (fun () -> ignore (Lc.run g)));
      Test.make ~name:"cluster:linear-n160"
        (let g = dag 160 in
         Staged.stage (fun () -> ignore (Lc.run g)));
      Test.make ~name:"cluster:dsc-n64"
        (let g = dag 64 in
         Staged.stage (fun () -> ignore (Dsc.run g)));
      Test.make ~name:"mdl:write"
        (Staged.stage (fun () ->
             ignore (Umlfront_simulink.Mdl_writer.to_string synthetic_caam)));
      Test.make ~name:"mdl:parse"
        (Staged.stage (fun () -> ignore (Parser.parse_string synthetic_mdl)));
      Test.make ~name:"sdf:flatten+order"
        (Staged.stage (fun () -> ignore (Exec.firing_order (Sdf.of_model synthetic_caam))));
      Test.make ~name:"sdf:execute-100-rounds"
        (let sdf = Sdf.of_model crane_caam in
         Staged.stage (fun () -> ignore (Exec.run ~rounds:100 sdf)));
      Test.make ~name:"fsm:flatten+minimize"
        (Staged.stage (fun () ->
             ignore (Umlfront_fsm.Minimize.run (Umlfront_fsm.Flatten.run hier_chart))));
      Test.make ~name:"codegen:c-from-caam"
        (Staged.stage (fun () ->
             ignore (Umlfront_codegen.Gen_threads.generate ~rounds:8 synthetic_caam)));
      Test.make ~name:"dse:synthetic12"
        (Staged.stage (fun () -> ignore (Core.Dse.explore (Cs.Synthetic_system.model ()))));
      Test.make ~name:"capture:synthetic"
        (Staged.stage (fun () -> ignore (Core.Capture.run synthetic_caam)));
      Test.make ~name:"audit:synthetic"
        (let uml = Cs.Synthetic_system.model () in
         let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear uml in
         Staged.stage (fun () -> ignore (Core.Consistency.audit uml out)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          let pretty =
            if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
          in
          row "  %-28s %s/run   (r2 %s)\n" name pretty
            (match Analyze.OLS.r_square ols_result with
            | Some r2 -> Printf.sprintf "%.3f" r2
            | None -> "n/a"))
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Part 4: observability — instrumented flows and BENCH_obs.json      *)
(* ------------------------------------------------------------------ *)

let flow_phases =
  [
    "flow.validate"; "flow.allocate"; "flow.map"; "flow.channels"; "flow.barriers";
    "flow.layout"; "flow.emit"; "flow.fsm";
  ]

let instrumented_case ~smoke name uml_fn strategy =
  Obs.Metrics.reset ();
  Obs.Trace.enable ();
  let rounds = if smoke then 20 else 100 in
  let t0 = Unix.gettimeofday () in
  let out = Core.Flow.run ~strategy (uml_fn ()) in
  let sdf = Sdf.of_model out.Core.Flow.caam in
  let outcome = Exec.run ~rounds sdf in
  let reparsed = Parser.parse_string out.Core.Flow.mdl in
  let total_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let phases_ms =
    List.filter_map
      (fun p ->
        Option.map (fun us -> (p, us /. 1e3)) (Obs.Trace.last_dur_us p))
      flow_phases
  in
  let blocks = S.total_blocks reparsed.Model.root in
  let parse_s =
    Option.value (Obs.Trace.last_dur_us "mdl.parse") ~default:Float.nan /. 1e6
  in
  let exec_s =
    Option.value (Obs.Trace.last_dur_us "exec.run") ~default:Float.nan /. 1e6
  in
  let firings = List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.Exec.firings in
  let blocks_per_s = float_of_int blocks /. parse_s in
  let firings_per_s = float_of_int firings /. exec_s in
  row "  %-10s total %8.2f ms | parse %8.0f blocks/s | exec %10.0f firings/s\n" name
    total_ms blocks_per_s firings_per_s;
  List.iter (fun (p, ms) -> row "    %-16s %8.3f ms\n" p ms) phases_ms;
  Json.Obj
    [
      ("name", Json.String name);
      ("total_ms", Json.Float total_ms);
      ("phases_ms", Json.Obj (List.map (fun (p, ms) -> (p, Json.Float ms)) phases_ms));
      ("blocks", Json.Int blocks);
      ("blocks_per_s_parsed", Json.Float blocks_per_s);
      ("rounds", Json.Int rounds);
      ("firings", Json.Int firings);
      ("actor_firings_per_s", Json.Float firings_per_s);
    ]

(* Mean wall-clock of the synthetic 12-thread flow with the span sink
   on vs. off — the acceptance bar for leaving instrumentation in hot
   paths permanently is < 5% overhead. *)
let instrumentation_overhead ~smoke () =
  let reps = if smoke then 5 else 30 in
  let measure enabled =
    if enabled then Obs.Trace.enable () else Obs.Trace.disable ();
    for _ = 1 to 3 do
      ignore (Core.Flow.run ~strategy:Core.Flow.Infer_linear (Cs.Synthetic_system.model ()))
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Core.Flow.run ~strategy:Core.Flow.Infer_linear (Cs.Synthetic_system.model ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int reps
  in
  let off = measure false in
  let on = measure true in
  Obs.Trace.disable ();
  let percent = (on -. off) /. off *. 100.0 in
  row "  sink disabled %8.3f ms/flow | enabled %8.3f ms/flow | overhead %+.2f%%\n" off
    on percent;
  Json.Obj
    [
      ("flow", Json.String "synthetic12");
      ("reps", Json.Int reps);
      ("disabled_ms", Json.Float off);
      ("enabled_ms", Json.Float on);
      ("percent", Json.Float percent);
    ]

(* Context plumbing overhead: the same flow run through an explicit,
   fully-armed telemetry context vs. plain ambient (?ctx:None, global
   sinks off).  Reported as a ratio (ctx_ms / baseline_ms, ~1.0 when
   plumbing is free) so the bench gate can diff it robustly across
   machines — percent deltas explode when the baseline is microseconds. *)
let context_overhead ~smoke () =
  let reps = if smoke then 5 else 30 in
  let measure mk_ctx =
    for _ = 1 to 3 do
      ignore
        (Core.Flow.run ~strategy:Core.Flow.Infer_linear ?ctx:(mk_ctx ())
           (Cs.Synthetic_system.model ()))
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore
        (Core.Flow.run ~strategy:Core.Flow.Infer_linear ?ctx:(mk_ctx ())
           (Cs.Synthetic_system.model ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int reps
  in
  Obs.Trace.disable ();
  let baseline = measure (fun () -> None) in
  let ctx_ms =
    measure (fun () -> Some (Obs.Context.create ~trace:true ~telemetry:true ()))
  in
  let factor = ctx_ms /. baseline in
  row "  ?ctx:None %8.3f ms/flow | explicit ctx %8.3f ms/flow | factor %.3f\n"
    baseline ctx_ms factor;
  Json.Obj
    [
      ("flow", Json.String "synthetic12");
      ("reps", Json.Int reps);
      ("baseline_ms", Json.Float baseline);
      ("ctx_ms", Json.Float ctx_ms);
      ("factor", Json.Float factor);
    ]

let write_json ~outdir file doc =
  let path = Filename.concat outdir file in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" path

let observability_bench ~smoke ~outdir () =
  section "Part 4 — observability: instrumented flows (BENCH_obs.json)";
  let crane =
    instrumented_case ~smoke "crane" Cs.Crane_system.model Core.Flow.Use_deployment
  in
  let synthetic =
    instrumented_case ~smoke "synthetic" Cs.Synthetic_system.model Core.Flow.Infer_linear
  in
  let mjpeg =
    instrumented_case ~smoke "mjpeg" Cs.Mjpeg_system.model Core.Flow.Prefer_deployment
  in
  let cases = [ crane; synthetic; mjpeg ] in
  let overhead = instrumentation_overhead ~smoke () in
  let ctx_overhead = context_overhead ~smoke () in
  write_json ~outdir "BENCH_obs.json"
    (Json.Obj
       [
         ("schema", Json.String "umlfront-bench-obs/1");
         ("cases", Json.List cases);
         ("overhead", overhead);
         ("context_overhead", ctx_overhead);
       ])

(* ------------------------------------------------------------------ *)
(* Part 5: multicore scaling — BENCH_parallel.json                    *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of [f], best of [reps] runs (first run doubles as
   warm-up on the repeated configurations). *)
let best_of reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    result := Some r;
    if ms < !best then best := ms
  done;
  (Option.get !result, !best)

let parallel_scaling ~smoke ~outdir () =
  section "Part 5 — multicore scaling study (BENCH_parallel.json)";
  Obs.Metrics.reset ();
  Obs.Trace.disable ();
  let reps = if smoke then 1 else 3 in
  let domain_counts = [ 1; 2; 4 ] in
  Printf.printf "  hardware domains available: %d\n" (Pool.cpu_count ());
  (* A sweep: run [run pool] at each domain count, sequential first as
     the baseline, and check the results stay bit-identical
     (polymorphic equality over the result — floats and all).

     [speedup] is always relative to the {e same} executor at 1 domain
     (self-scaling); [speedup_vs_seq] is relative to the reference
     result in [cmp] — by default the sweep's own sequential run (so
     the two coincide), but a sweep of an alternative executor passes
     the sequential [Exec.run] baseline there, which is the honest
     "beats sequential" number.  With [cmp] the identity check also
     compares every row — including 1 domain — against the reference
     result instead of the sweep's own baseline. *)
  let sweep ?cmp (run : ?pool:Pool.t -> unit -> _) =
    let baseline, base_ms = best_of reps (fun () -> run ()) in
    let expected, ref_ms =
      match cmp with Some (e, m) -> (e, m) | None -> (baseline, base_ms)
    in
    let rows =
      List.map
        (fun domains ->
          if domains <= 1 then
            (domains, base_ms, 1.0, ref_ms /. base_ms, baseline = expected)
          else
            Pool.with_pool ~domains (fun pool ->
                let r, ms = best_of reps (fun () -> run ~pool ()) in
                (domains, ms, base_ms /. ms, ref_ms /. ms, r = expected)))
        domain_counts
    in
    (rows, baseline, base_ms)
  in
  let print_rows label rows =
    List.iter
      (fun (domains, ms, speedup, vs_seq, identical) ->
        row "  %-10s %d domains: %8.2f ms  speedup %5.2fx  vs-seq %5.2fx  %s\n" label
          domains ms speedup vs_seq
          (if identical then "[identical]" else "[DIVERGED]"))
      rows
  in
  let rows_json rows =
    Json.List
      (List.map
         (fun (domains, ms, speedup, vs_seq, identical) ->
           Json.Obj
             [
               ("domains", Json.Int domains);
               ("ms", Json.Float ms);
               ("speedup", Json.Float speedup);
               ("speedup_vs_seq", Json.Float vs_seq);
               ("identical", Json.Bool identical);
             ])
         rows)
  in
  (* DSE: every CPU-count candidate runs the full synthesis + timing
     pipeline, independently per candidate — the embarrassingly
     parallel sweep the paper's §6 estimation step implies. *)
  let threads = if smoke then 8 else 16 in
  let seeds = if smoke then [ 11 ] else [ 11; 23; 37 ] in
  let models =
    List.map
      (fun seed -> Cs.Random_models.pipeline ~seed ~threads ~extra_edges:(threads / 2))
      seeds
  in
  let dse_rows, _, _ =
    sweep (fun ?pool () -> List.map (fun m -> Core.Dse.explore ?pool m) models)
  in
  print_rows "dse" dse_rows;
  (* SDF execution on a wide scatter/gather model — the level width
     (= branches) is the parallelism the compiled executor can use. *)
  let branches = if smoke then 6 else 16 in
  let depth = if smoke then 3 else 6 in
  let rounds = if smoke then 50 else 200 in
  let caam =
    (Core.Flow.run ~strategy:Core.Flow.Infer_linear
       (Cs.Random_models.wide ~seed:42 ~branches ~depth))
      .Core.Flow.caam
  in
  let sdf = Sdf.of_model caam in
  let lvls = Exec.levels sdf in
  let widest = List.fold_left (fun acc l -> max acc (List.length l)) 0 lvls in
  row "  exec model: %d actors in %d levels (widest %d), %d rounds\n"
    (List.length sdf.Sdf.actors) (List.length lvls) widest rounds;
  let exec_outcome, exec_seq_ms = best_of reps (fun () -> Exec.run ~rounds sdf) in
  row "  exec       sequential reference: %8.2f ms\n" exec_seq_ms;
  (* The compiled flat-schedule executor on the same model, diffed
     against the sequential [Exec.run] reference: [identical] means
     bit-identical to the reference interpreter, and [speedup_vs_seq]
     is the compiled-over-sequential-reference ratio — the number the
     bench gate watches. *)
  let compiled_rows, _, _ =
    sweep
      ~cmp:(exec_outcome, exec_seq_ms)
      (fun ?pool () -> Compiled.run ?pool ~rounds sdf)
  in
  print_rows "compiled" compiled_rows;
  let all_identical =
    List.for_all (fun (_, _, _, _, id) -> id) (dse_rows @ compiled_rows)
  in
  row "  determinism: parallel results %s sequential baselines\n"
    (if all_identical then "bit-identical to" else "DIVERGED from");
  write_json ~outdir "BENCH_parallel.json"
    (Json.Obj
       [
         ("schema", Json.String "umlfront-bench-parallel/1");
         ("hardware_domains", Json.Int (Pool.cpu_count ()));
         ("smoke", Json.Bool smoke);
         ( "dse",
           Json.Obj
             [
               ("models", Json.Int (List.length models));
               ("threads_per_model", Json.Int threads);
               ("sweeps", rows_json dse_rows);
             ] );
         ("identical", Json.Bool all_identical);
       ]);
  write_json ~outdir "BENCH_exec_compiled.json"
    (Json.Obj
       [
         ("schema", Json.String "umlfront-bench-exec-compiled/1");
         ("hardware_domains", Json.Int (Pool.cpu_count ()));
         ("smoke", Json.Bool smoke);
         ( "model",
           Json.Obj
             [
               ("actors", Json.Int (List.length sdf.Sdf.actors));
               ("levels", Json.Int (List.length lvls));
               ("widest_level", Json.Int widest);
               ("rounds", Json.Int rounds);
             ] );
         ("exec_seq_ms", Json.Float exec_seq_ms);
         ("compiled", Json.Obj [ ("sweeps", rows_json compiled_rows) ]);
       ])

let () =
  (* -v/--verbose as in bin/umlfront; --smoke for the reduced CI run;
     -o/--output-dir DIR for where the BENCH_*.json files land. *)
  let rec parse (verbosity, smoke, outdir) = function
    | [] -> (verbosity, smoke, outdir)
    | ("-v" | "--verbose") :: rest -> parse (verbosity + 1, smoke, outdir) rest
    | "--smoke" :: rest -> parse (verbosity, true, outdir) rest
    | ("-o" | "--output-dir") :: dir :: rest -> parse (verbosity, smoke, dir) rest
    | arg :: rest when String.starts_with ~prefix:"--output-dir=" arg ->
        let dir =
          String.sub arg (String.length "--output-dir=")
            (String.length arg - String.length "--output-dir=")
        in
        parse (verbosity, smoke, dir) rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n%!" arg;
        exit 2
  in
  let verbosity, smoke, outdir =
    parse (0, false, ".") (List.tl (Array.to_list Sys.argv))
  in
  if verbosity > 0 then (
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbosity > 1 then Logs.Debug else Logs.Info)));
  if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
  print_endline "umlfront experiment harness — paper figures, ablations, benchmarks";
  fig3_didactic ();
  fig5_crane ();
  fig7_clustering ();
  fig8_caam ();
  allocation_ablation ();
  timing_ablation ();
  bounded_platform_ablation ();
  dse_sweep ();
  if not smoke then microbenchmarks ();
  observability_bench ~smoke ~outdir ();
  parallel_scaling ~smoke ~outdir ();
  print_endline "\ndone."
