(* Dataflow.Trace_export: CSV column order, schedule rows, gantt width
   clamping, and the Chrome-trace schedule export — previously only
   exercised indirectly through the CLI. *)

module Core = Umlfront_core
module Cs = Umlfront_casestudies
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Trace_export = Umlfront_dataflow.Trace_export
module Timing = Umlfront_dataflow.Timing

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let crane_sdf =
  lazy
    (let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
     Sdf.of_model out.Core.Flow.caam)

let lines s = String.split_on_char '\n' (String.trim s)

let traces_csv_columns () =
  let sdf = Lazy.force crane_sdf in
  let outcome = Exec.run ~rounds:5 sdf in
  let csv = Trace_export.traces_csv outcome in
  let rows = lines csv in
  let header = List.hd rows in
  check Alcotest.string "header is round + ports in trace order"
    ("round," ^ String.concat "," (List.map fst outcome.Exec.traces))
    header;
  check Alcotest.int "one row per round" 5 (List.length (List.tl rows));
  List.iteri
    (fun i row ->
      let cells = String.split_on_char ',' row in
      check Alcotest.int "cells per row"
        (1 + List.length outcome.Exec.traces)
        (List.length cells);
      check Alcotest.string "round column counts up" (string_of_int i) (List.hd cells);
      List.iter
        (fun cell ->
          check Alcotest.bool "numeric cell" true (float_of_string_opt cell <> None))
        (List.tl cells))
    (List.tl rows)

let schedule_csv_shape () =
  let sdf = Lazy.force crane_sdf in
  let csv = Trace_export.schedule_csv sdf in
  let rows = lines csv in
  check Alcotest.string "header" "actor,cpu,thread,start,finish" (List.hd rows);
  check Alcotest.bool "has scheduled actors" true (List.length rows > 1);
  List.iter
    (fun row ->
      match String.split_on_char ',' row with
      | [ _actor; cpu; _thread; start; finish ] ->
          check Alcotest.bool "cpu nonempty" true (cpu <> "");
          let s = float_of_string start and f = float_of_string finish in
          check Alcotest.bool "start <= finish" true (s <= f)
      | cells -> Alcotest.failf "expected 5 columns, got %d" (List.length cells))
    (List.tl rows)

let gantt_width_clamped () =
  let sdf = Lazy.force crane_sdf in
  List.iter
    (fun width ->
      let chart = Trace_export.gantt ~width sdf in
      check Alcotest.bool "nonempty" true (chart <> "");
      List.iter
        (fun line ->
          match (String.index_opt line '|', String.rindex_opt line '|') with
          | Some first, Some last when last > first ->
              check Alcotest.int
                (Printf.sprintf "lane width is exactly %d" width)
                width (last - first - 1)
          | _ -> Alcotest.fail "gantt line has no |lane|")
        (lines chart))
    [ 1; 20; 60 ]

let gantt_lanes_are_cpus () =
  let sdf = Lazy.force crane_sdf in
  let chart = Trace_export.gantt ~width:30 sdf in
  (* Crane: 3 threads on 1 CPU — one lane. *)
  check Alcotest.int "one lane per cpu" 1 (List.length (lines chart));
  check Alcotest.bool "lane labelled with cpu" true
    (Astring_contains.contains chart "CPU1")

let chrome_schedule_export () =
  let sdf = Lazy.force crane_sdf in
  let json = Trace_export.chrome_json sdf in
  check Alcotest.bool "has traceEvents" true
    (Astring_contains.contains json "\"traceEvents\"");
  check Alcotest.bool "complete events" true
    (Astring_contains.contains json "\"ph\":\"X\"");
  check Alcotest.bool "args carry the cpu" true
    (Astring_contains.contains json "\"cpu\":\"CPU1\"")

(* The exports draw Timing's own list schedule (bus serialization and
   Cost parameters included), so the schedule ends at the makespan. *)
let schedule_is_timings () =
  List.iter
    (fun (label, model) ->
      let sdf = Sdf.of_model (Core.Flow.run (model ())).Core.Flow.caam in
      let report = Timing.evaluate sdf in
      let expected =
        List.filter_map
          (fun (s : Timing.slot) ->
            Option.map
              (fun cpu ->
                Printf.sprintf "%s,%s,%s,%.2f,%.2f" s.Timing.actor cpu
                  (Option.value s.Timing.thread ~default:"-")
                  s.Timing.start s.Timing.finish)
              s.Timing.cpu)
          report.Timing.schedule
      in
      let rows = List.tl (lines (Trace_export.schedule_csv sdf)) in
      check Alcotest.(list string) (label ^ ": rows are Timing's schedule") expected rows;
      let latest =
        List.fold_left
          (fun acc row ->
            match List.rev (String.split_on_char ',' row) with
            | finish :: _ -> Float.max acc (float_of_string finish)
            | [] -> acc)
          0.0 rows
      in
      check (Alcotest.float 0.005) (label ^ ": latest finish is the makespan")
        report.Timing.makespan latest)
    [
      ("crane", Cs.Crane_system.model);
      ("synthetic", Cs.Synthetic_system.model);
      ("mjpeg", Cs.Mjpeg_system.model);
      ("didactic", Cs.Didactic.model);
    ]

let suite =
  [
    ( "trace_export",
      [
        test "traces_csv column order" traces_csv_columns;
        test "schedule_csv shape" schedule_csv_shape;
        test "gantt width clamping" gantt_width_clamped;
        test "gantt lanes are cpus" gantt_lanes_are_cpus;
        test "chrome schedule export" chrome_schedule_export;
        test "the exports draw Timing's schedule" schedule_is_timings;
      ] );
  ]
