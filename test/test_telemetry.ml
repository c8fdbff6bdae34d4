(* Causal token tracing end to end: the Telemetry sink itself, the SDF
   executor and KPN scheduler reporting into it, KPN deadlock victims
   in the journal, and the CLI surface (stats formats, journal,
   bench-diff). *)

module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module T = Umlfront_obs.Telemetry
module D = Umlfront_dataflow
module Kpn = Umlfront_dataflow.Kpn

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains
let crane_sdf () = D.Sdf.of_model (Lint_mutants.crane_caam ())

(* Every test owns the process-global sink for its duration. *)
let with_telemetry f =
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

(* --- the sink -------------------------------------------------------- *)

let sink_fifo_and_stats () =
  with_telemetry @@ fun () ->
  let ch = "A/1->B/1" in
  let id0 = T.produce ~protocols:[ "SHM" ] ~round:0 ~src:"A" ~firing:1 ch in
  let _ = T.produce ~round:0 ~src:"A" ~firing:2 ch in
  (match T.consume ~by:"B" ch with
  | Some p ->
      check Alcotest.int "FIFO: oldest token first" id0 p.T.token_id;
      check Alcotest.string "consumer patches unknown dst" "B" p.T.token_dst;
      check Alcotest.int "producer firing" 1 p.T.token_src_firing;
      check Alcotest.int "round" 0 p.T.token_round
  | None -> Alcotest.fail "expected a provenance");
  (match T.channels () with
  | [ s ] ->
      check Alcotest.int "produced" 2 s.T.chan_produced;
      check Alcotest.int "consumed" 1 s.T.chan_consumed;
      check Alcotest.int "occupancy" 1 s.T.chan_occupancy;
      check Alcotest.int "high-water mark" 2 s.T.chan_hwm;
      check Alcotest.int "hwm round" 0 s.T.chan_hwm_round;
      check Alcotest.(list string) "protocols" [ "SHM" ] s.T.chan_protocols
  | l -> Alcotest.failf "expected 1 channel, got %d" (List.length l));
  check Alcotest.(list int) "occupancy timeline" [ 1; 2; 1 ]
    (List.map snd (T.occupancy_timeline ch))

let sink_exports () =
  with_telemetry @@ fun () ->
  let ch = "A/1->B/1" in
  let id0 = T.produce ~protocols:[ "SHM" ] ~round:0 ~dst:"B" ~src:"A" ~firing:1 ch in
  ignore (T.consume ~by:"B" ch);
  ignore (T.produce ~round:1 ~src:"A" ~firing:2 ch);
  (* One consumed token (s+f pair bound by id), one dangling (s only). *)
  let events = T.flow_events () in
  check Alcotest.int "three flow events" 3 (List.length events);
  let phases_of id =
    List.filter_map
      (fun e ->
        match (Json.member "id" e, Json.member "ph" e) with
        | Some (Json.Int i), Some (Json.String ph) when i = id -> Some ph
        | _ -> None)
      events
  in
  check Alcotest.(list string) "consumed token has s+f" [ "s"; "f" ] (phases_of id0);
  let finish =
    List.find
      (fun e -> Json.member "ph" e = Some (Json.String "f"))
      events
  in
  check Alcotest.bool "finish binds to enclosing slice" true
    (Json.member "bp" finish = Some (Json.String "e"));
  (* token_at answers "which token crossed ch in round 1". *)
  (match T.token_at ~channel:ch ~round:1 with
  | Some p -> check Alcotest.int "round-1 token is the second firing" 2 p.T.token_src_firing
  | None -> Alcotest.fail "token_at found nothing for round 1");
  (* The DOT causal graph: consumed edge A->B, dangling edge A->"?". *)
  let dot = T.flow_dot () in
  check Alcotest.bool "consumed edge" true (contains dot "\"A\" -> \"B\"");
  check Alcotest.bool "dangling edge flows to ?" true (contains dot "\"A\" -> \"?\"");
  check Alcotest.bool "edge label counts tokens" true (contains dot "\195\1511");
  let doc = T.to_json () in
  List.iter
    (fun key -> check Alcotest.bool (key ^ " in to_json") true (Json.member key doc <> None))
    [ "channels"; "timelines"; "flowEvents"; "droppedTokens" ]

(* --- the SDF executor reports in ------------------------------------- *)

let exec_traces_crane_tokens () =
  let sdf = crane_sdf () in
  Obs.Journal.reset ();
  with_telemetry @@ fun () ->
  let rounds = 3 in
  let _ = D.Exec.run ~rounds sdf in
  let chans = T.channels () in
  check Alcotest.int "one traced channel per SDF edge"
    (List.length sdf.D.Sdf.edges) (List.length chans);
  List.iter
    (fun s ->
      check Alcotest.int (s.T.chan_name ^ " produced once per round") rounds
        s.T.chan_produced;
      check Alcotest.int (s.T.chan_name ^ " consumed once per round") rounds
        s.T.chan_consumed;
      check Alcotest.bool (s.T.chan_name ^ " hwm reached") true (s.T.chan_hwm >= 1))
    chans;
  (* Provenance of a round-1 token: producing actor, second firing. *)
  let ch = (List.hd chans).T.chan_name in
  (match T.token_at ~channel:ch ~round:1 with
  | Some p ->
      check Alcotest.int "firing index tracks rounds" 2 p.T.token_src_firing;
      check Alcotest.bool "src is a real actor" true
        (D.Sdf.find_actor sdf p.T.token_src <> None)
  | None -> Alcotest.failf "no token recorded on %s in round 1" ch);
  (* The journal carries the run envelope and the per-channel HWMs. *)
  let es = Obs.Journal.entries () in
  check Alcotest.bool "exec.run journaled" true
    (Obs.Journal.filter ~kind:"exec.run" es <> []);
  check Alcotest.bool "exec.done journaled" true
    (Obs.Journal.filter ~kind:"exec.done" es <> []);
  check Alcotest.int "one channel.hwm entry per channel" (List.length chans)
    (List.length (Obs.Journal.filter ~kind:"channel.hwm" es))

(* --- the KPN scheduler reports in ------------------------------------ *)

let kpn_traces_tokens () =
  with_telemetry @@ fun () ->
  let _ =
    Kpn.run
      [
        ("prod", Kpn.producer ~out:"ch" [ 1.0; 2.0; 3.0 ]);
        ("cons", Kpn.consumer ~inp:"ch" ~n:3);
      ]
  in
  (match T.channels () with
  | [ s ] ->
      check Alcotest.string "channel" "ch" s.T.chan_name;
      check Alcotest.int "produced" 3 s.T.chan_produced;
      check Alcotest.int "consumed" 3 s.T.chan_consumed
  | l -> Alcotest.failf "expected 1 channel, got %d" (List.length l));
  let provs = List.map (fun t -> t.T.prov) (T.tokens ()) in
  check Alcotest.(list int) "write indices are per-process firings" [ 1; 2; 3 ]
    (List.map (fun p -> p.T.token_src_firing) provs);
  List.iter
    (fun p ->
      check Alcotest.string "producer" "prod" p.T.token_src;
      check Alcotest.string "consumer patched in" "cons" p.T.token_dst)
    provs

(* --- KPN deadlock victims ------------------------------------------- *)

let deadlock_victims_journaled () =
  Obs.Journal.reset ();
  (match Kpn.run [ ("pa", Kpn.Read ("x", fun _ -> Kpn.Done 0.0)) ] with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Kpn.Deadlock [ "pa" ] -> ()
  | exception Kpn.Deadlock l ->
      Alcotest.failf "unexpected victims: %s" (String.concat "," l));
  match Obs.Journal.filter ~kind:"kpn.deadlock" (Obs.Journal.entries ()) with
  | [ e ] ->
      let doc = Obs.Journal.entry_json e in
      check Alcotest.bool "victims recorded" true
        (contains (Json.to_string doc) "pa")
  | l -> Alcotest.failf "expected 1 kpn.deadlock entry, got %d" (List.length l)

(* --- the CLI surface ------------------------------------------------- *)

let exe = Filename.concat ".." (Filename.concat "bin" "umlfront.exe")

let read_file f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_cli args =
  let out = Filename.temp_file "umlfront_tel" ".out" in
  let err = Filename.temp_file "umlfront_tel" ".err" in
  let code = Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe args out err) in
  let slurp f =
    let s = read_file f in
    Sys.remove f;
    s
  in
  (code, slurp out, slurp err)

let save_model () =
  let file = Filename.temp_file "umlfront_tel" ".xml" in
  Umlfront_uml.Xmi.save (Lint_mutants.crane ()) file;
  file

let with_model f =
  let file = save_model () in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let cli_stats_json_roundtrips () =
  with_model @@ fun file ->
  let code, out, _ = run_cli ("stats --format json " ^ Filename.quote file) in
  check Alcotest.int "exit" 0 code;
  let doc =
    match Json.parse out with Ok d -> d | Error e -> Alcotest.fail e
  in
  let stats = Json.items doc in
  check Alcotest.bool "some stats" true (stats <> []);
  let names =
    List.map
      (fun s ->
        check Alcotest.bool "kind present" true (Json.member "kind" s <> None);
        match Json.member "name" s with
        | Some (Json.String n) -> n
        | _ -> Alcotest.fail "stat without a name")
      stats
  in
  check Alcotest.bool "flow counters exported" true
    (List.exists (fun n -> String.starts_with ~prefix:"flow." n) names);
  (* Round-trip: serialize and re-parse, key names survive. *)
  match Json.parse (Json.to_string doc) with
  | Ok doc' ->
      let names' =
        List.filter_map
          (fun s ->
            match Json.member "name" s with
            | Some (Json.String n) -> Some n
            | _ -> None)
          (Json.items doc')
      in
      check Alcotest.(list string) "names round-trip" names names'
  | Error e -> Alcotest.fail e

let cli_stats_openmetrics () =
  with_model @@ fun file ->
  let mout = Filename.temp_file "umlfront_tel" ".prom" in
  Fun.protect ~finally:(fun () -> Sys.remove mout) @@ fun () ->
  let code, out, _ =
    run_cli
      (Printf.sprintf "stats --format openmetrics --metrics-out %s %s"
         (Filename.quote mout) (Filename.quote file))
  in
  check Alcotest.int "exit" 0 code;
  check Alcotest.bool "umlfront_ prefix" true (contains out "umlfront_");
  check Alcotest.bool "EOF marker" true (contains out "# EOF");
  check Alcotest.string "--metrics-out mirrors stdout" out (read_file mout)

let cli_journal_replays () =
  with_model @@ fun file ->
  let code, out, _ =
    run_cli ("journal --kind exec --limit 3 " ^ Filename.quote file)
  in
  check Alcotest.int "exit" 0 code;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  check Alcotest.bool "some entries" true (lines <> []);
  check Alcotest.bool "--limit respected" true (List.length lines <= 3);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok doc -> (
          match Json.member "kind" doc with
          | Some (Json.String k) ->
              check Alcotest.bool ("exec-filtered kind: " ^ k) true
                (String.starts_with ~prefix:"exec" k)
          | _ -> Alcotest.fail "entry without a kind")
      | Error e -> Alcotest.fail e)
    lines

let cli_bench_diff_gate () =
  let write_doc blocks =
    let f = Filename.temp_file "umlfront_bench" ".json" in
    let oc = open_out f in
    output_string oc
      (Printf.sprintf
         "{\"schema\":\"umlfront-bench-obs/1\",\"cases\":[{\"name\":\"crane\",\
          \"blocks_per_s_parsed\":%f,\"actor_firings_per_s\":1000.0}]}"
         blocks);
    close_out oc;
    f
  in
  let base = write_doc 100.0 and slow = write_doc 60.0 and ok = write_doc 95.0 in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ base; slow; ok ])
  @@ fun () ->
  let q = Filename.quote in
  let code, out, _ = run_cli (Printf.sprintf "bench-diff %s %s" (q base) (q slow)) in
  check Alcotest.int "-40%% fails the gate" 1 code;
  check Alcotest.bool "verdict printed" true (contains out "REGRESSION");
  let code, _, _ = run_cli (Printf.sprintf "bench-diff %s %s" (q base) (q ok)) in
  check Alcotest.int "-5%% passes" 0 code;
  let code, _, _ =
    run_cli (Printf.sprintf "bench-diff --tolerance 50 %s %s" (q base) (q slow))
  in
  check Alcotest.int "-40%% passes a 50%% tolerance" 0 code

let cli_simulate_token_export () =
  with_model @@ fun file ->
  let toks = Filename.temp_file "umlfront_tel" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove toks) @@ fun () ->
  let code, _, _ =
    run_cli
      (Printf.sprintf "simulate --rounds 2 --tokens %s %s" (Filename.quote toks)
         (Filename.quote file))
  in
  check Alcotest.int "exit" 0 code;
  match Json.parse (read_file toks) with
  | Ok doc ->
      check Alcotest.bool "channels exported" true
        (Json.items (Option.get (Json.member "channels" doc)) <> []);
      check Alcotest.bool "flow events exported" true
        (Json.items (Option.get (Json.member "flowEvents" doc)) <> [])
  | Error e -> Alcotest.fail e

let suite =
  [
    ( "telemetry",
      [
        test "sink: FIFO matching and channel stats" sink_fifo_and_stats;
        test "sink: flow events, token_at, DOT export" sink_exports;
        test "exec: crane tokens traced per round" exec_traces_crane_tokens;
        test "kpn: tokens traced with write indices" kpn_traces_tokens;
        test "deadlock victims reach the journal" deadlock_victims_journaled;
        test "cli: stats --format json round-trips" cli_stats_json_roundtrips;
        test "cli: stats --format openmetrics" cli_stats_openmetrics;
        test "cli: journal replays as JSONL" cli_journal_replays;
        test "cli: bench-diff gates regressions" cli_bench_diff_gate;
        test "cli: simulate --tokens exports telemetry" cli_simulate_token_export;
      ] );
  ]
