module B = Umlfront_simulink.Block
module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Timing = Umlfront_dataflow.Timing
module Kpn = Umlfront_dataflow.Kpn

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let pr block port = { S.block; S.port }

(* top: Const(3) -> sub[ gain*2 ] -> Gain*10 -> Out *)
let nested_pipeline () =
  let inner = S.empty "sub" in
  let inner = S.add_block ~params:[ ("Port", B.P_int 1) ] inner B.Inport "In1" in
  let inner = S.add_block ~params:[ ("Gain", B.P_float 2.0) ] inner B.Gain "g2" in
  let inner = S.add_block ~params:[ ("Port", B.P_int 1) ] inner B.Outport "Out1" in
  let inner = S.add_line inner ~src:(pr "In1" 1) ~dst:(pr "g2" 1) in
  let inner = S.add_line inner ~src:(pr "g2" 1) ~dst:(pr "Out1" 1) in
  let root = S.empty "m" in
  let root = S.add_block ~params:[ ("Value", B.P_float 3.0) ] root B.Constant "c" in
  let root = S.add_block ~system:inner root B.Subsystem "sub" in
  let root = S.add_block ~params:[ ("Gain", B.P_float 10.0) ] root B.Gain "g10" in
  let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
  let root = S.add_line root ~src:(pr "c" 1) ~dst:(pr "sub" 1) in
  let root = S.add_line root ~src:(pr "sub" 1) ~dst:(pr "g10" 1) in
  let root = S.add_line root ~src:(pr "g10" 1) ~dst:(pr "out" 1) in
  Model.make ~name:"m" root

(* Accumulator: delay feeds a sum with constant 1; classic counter. *)
let counter ?(with_delay = true) () =
  let root = S.empty "m" in
  let root = S.add_block ~params:[ ("Value", B.P_float 1.0) ] root B.Constant "one" in
  let root = S.add_block ~params:[ ("Inputs", B.P_string "++") ] root B.Sum "acc" in
  let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
  let root = S.add_line root ~src:(pr "one" 1) ~dst:(pr "acc" 1) in
  let root =
    if with_delay then (
      let root =
        S.add_block ~params:[ ("InitialCondition", B.P_float 0.0) ] root B.Unit_delay "z"
      in
      let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "z" 1) in
      S.add_line root ~src:(pr "z" 1) ~dst:(pr "acc" 2))
    else
      (* direct feedback: zero-delay cycle *)
      let root = S.add_block ~params:[ ("Gain", B.P_float 1.0) ] root B.Gain "idg" in
      let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "idg" 1) in
      S.add_line root ~src:(pr "idg" 1) ~dst:(pr "acc" 2)
  in
  let root = S.add_line root ~src:(pr "acc" 1) ~dst:(pr "out" 1) in
  Model.make ~name:"counter" root

let sdf_tests =
  [
    test "flattening dissolves subsystem boundaries" (fun () ->
        let sdf = Sdf.of_model (nested_pipeline ()) in
        let names = List.map (fun (a : Sdf.actor) -> a.Sdf.actor_name) sdf.Sdf.actors in
        check Alcotest.(list string) "actors" [ "c"; "g10"; "out"; "sub/g2" ]
          (List.sort compare names);
        check Alcotest.int "edges" 3 (List.length sdf.Sdf.edges));
    test "edge endpoints are leaves" (fun () ->
        let sdf = Sdf.of_model (nested_pipeline ()) in
        check Alcotest.bool "c feeds g2" true
          (List.exists
             (fun (e : Sdf.edge) -> e.Sdf.edge_src = "c" && e.Sdf.edge_dst = "sub/g2")
             sdf.Sdf.edges));
    test "graph outputs found" (fun () ->
        let sdf = Sdf.of_model (nested_pipeline ()) in
        check Alcotest.(list string) "outs" [ "out" ] sdf.Sdf.graph_outputs);
    test "channels recorded on crossing edges" (fun () ->
        let m = Test_simulink.sample_caam () in
        let sdf = Sdf.of_model m in
        let crossing =
          List.find
            (fun (e : Sdf.edge) -> e.Sdf.edge_channels <> [])
            sdf.Sdf.edges
        in
        check Alcotest.(list (pair string string)) "swfifo" [ ("ch1", "SWFIFO") ]
          crossing.Sdf.edge_channels);
    test "cpu and thread of actor" (fun () ->
        let m = Test_simulink.sample_caam () in
        let sdf = Sdf.of_model m in
        let a = Option.get (Sdf.find_actor sdf "CPU1/T1/c") in
        check Alcotest.(option string) "cpu" (Some "CPU1") (Sdf.cpu_of_actor a);
        check Alcotest.(option string) "thread" (Some "T1") (Sdf.thread_of_actor a));
    test "to_taskgraph drops delay out-edges" (fun () ->
        let sdf = Sdf.of_model (counter ()) in
        let g = Sdf.to_taskgraph sdf in
        check Alcotest.bool "acyclic" true (Umlfront_taskgraph.Algo.is_acyclic g));
    test "destinations_of_line traces through hierarchy" (fun () ->
        let m = nested_pipeline () in
        let line = List.hd (S.lines m.Model.root) in
        check Alcotest.(list (pair string int)) "dests" [ ("sub/g2", 1) ]
          (Sdf.destinations_of_line m ~path:[] line));
  ]

let exec_tests =
  [
    test "pipeline computes 3*2*10" (fun () ->
        let sdf = Sdf.of_model (nested_pipeline ()) in
        let outcome = Exec.run ~rounds:3 sdf in
        match List.assoc_opt "out" outcome.Exec.traces with
        | Some samples -> Array.iter (fun v -> check (Alcotest.float 1e-9) "60" 60.0 v) samples
        | None -> Alcotest.fail "no trace");
    test "counter counts with unit delay" (fun () ->
        let sdf = Sdf.of_model (counter ()) in
        let outcome = Exec.run ~rounds:5 sdf in
        match List.assoc_opt "out" outcome.Exec.traces with
        | Some samples ->
            check
              Alcotest.(array (float 1e-9))
              "1..5"
              [| 1.0; 2.0; 3.0; 4.0; 5.0 |]
              samples
        | None -> Alcotest.fail "no trace");
    test "zero-delay cycle deadlocks" (fun () ->
        let sdf = Sdf.of_model (counter ~with_delay:false ()) in
        match Exec.firing_order sdf with
        | exception Exec.Deadlock cycle ->
            check Alcotest.bool "mentions acc" true (List.mem "acc" cycle)
        | _ -> Alcotest.fail "expected Deadlock");
    test "every actor fires once per round" (fun () ->
        let sdf = Sdf.of_model (counter ()) in
        let outcome = Exec.run ~rounds:7 sdf in
        List.iter (fun (_, n) -> check Alcotest.int "7" 7 n) outcome.Exec.firings);
    test "sum signs" (fun () ->
        let root = S.empty "m" in
        let root = S.add_block ~params:[ ("Value", B.P_float 10.0) ] root B.Constant "a" in
        let root = S.add_block ~params:[ ("Value", B.P_float 4.0) ] root B.Constant "b" in
        let root = S.add_block ~params:[ ("Inputs", B.P_string "+-") ] root B.Sum "s" in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
        let root = S.add_line root ~src:(pr "a" 1) ~dst:(pr "s" 1) in
        let root = S.add_line root ~src:(pr "b" 1) ~dst:(pr "s" 2) in
        let root = S.add_line root ~src:(pr "s" 1) ~dst:(pr "out" 1) in
        let sdf = Sdf.of_model (Model.make ~name:"m" root) in
        let outcome = Exec.run ~rounds:1 sdf in
        check (Alcotest.float 1e-9) "6" 6.0 (List.assoc "out" outcome.Exec.traces).(0));
    test "saturation clamps" (fun () ->
        let root = S.empty "m" in
        let root = S.add_block ~params:[ ("Value", B.P_float 9.0) ] root B.Constant "c" in
        let root =
          S.add_block
            ~params:[ ("UpperLimit", B.P_float 2.0); ("LowerLimit", B.P_float (-2.0)) ]
            root B.Saturation "sat"
        in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
        let root = S.add_line root ~src:(pr "c" 1) ~dst:(pr "sat" 1) in
        let root = S.add_line root ~src:(pr "sat" 1) ~dst:(pr "out" 1) in
        let outcome = Exec.run ~rounds:1 (Sdf.of_model (Model.make ~name:"m" root)) in
        check (Alcotest.float 1e-9) "2" 2.0 (List.assoc "out" outcome.Exec.traces).(0));
    test "default s-function deterministic" (fun () ->
        let a = Exec.default_sfunction "calc" [| 1.0; 2.0 |] 2 in
        let b = Exec.default_sfunction "calc" [| 1.0; 2.0 |] 2 in
        check Alcotest.(array (float 1e-12)) "same" a b;
        check Alcotest.bool "ports differ" true (a.(0) <> a.(1)));
    test "custom s-function override used" (fun () ->
        let root = S.empty "m" in
        let root =
          S.add_block
            ~params:
              [
                ("FunctionName", B.P_string "boost");
                ("Inputs", B.P_int 0);
                ("Outputs", B.P_int 1);
              ]
            root B.S_function "sf"
        in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
        let root = S.add_line root ~src:(pr "sf" 1) ~dst:(pr "out" 1) in
        let sdf = Sdf.of_model (Model.make ~name:"m" root) in
        let outcome =
          Exec.run
            ~sfunctions:(fun name ->
              if name = "boost" then Some (fun _ -> [| 42.0 |]) else None)
            ~rounds:1 sdf
        in
        check (Alcotest.float 1e-9) "42" 42.0 (List.assoc "out" outcome.Exec.traces).(0));
    test "stimulus drives top inports" (fun () ->
        let root = S.empty "m" in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Inport "sig" in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "out" in
        let root = S.add_line root ~src:(pr "sig" 1) ~dst:(pr "out" 1) in
        let sdf = Sdf.of_model (Model.make ~name:"m" root) in
        let outcome = Exec.run ~stimulus:(fun _ r -> float_of_int r) ~rounds:3 sdf in
        check
          Alcotest.(array (float 1e-9))
          "identity" [| 0.0; 1.0; 2.0 |]
          (List.assoc "out" outcome.Exec.traces));
  ]

let timing_tests =
  [
    test "single chain timing" (fun () ->
        (* CAAM with const->channel->sink across threads: both actors on
           CPU1, SWFIFO latency charged once. *)
        let m = Test_simulink.sample_caam () in
        let r = Timing.evaluate (Sdf.of_model m) in
        check Alcotest.int "intra" 1 r.Timing.intra_tokens;
        check Alcotest.int "inter" 0 r.Timing.inter_tokens;
        (* const at 0-1, comm 2, sink 3-4 on the same cpu *)
        check (Alcotest.float 1e-9) "makespan" 4.0 r.Timing.makespan;
        check (Alcotest.float 1e-9) "sequential" 2.0 r.Timing.sequential);
    test "custom cost model respected" (fun () ->
        let m = Test_simulink.sample_caam () in
        let model =
          {
            Timing.default_actor_cost = 1.0;
            wire_cost = 0.0;
            swfifo_cost = 100.0;
            gfifo_cost = 200.0;
            bus_serialized = true;
          }
        in
        let r = Timing.evaluate ~model (Sdf.of_model m) in
        check (Alcotest.float 1e-9) "comm cost" 100.0 r.Timing.comm_cost);
    test "cpu busy accounts every actor" (fun () ->
        let m = Test_simulink.sample_caam () in
        let r = Timing.evaluate (Sdf.of_model m) in
        check Alcotest.(list (pair string (float 1e-9))) "busy" [ ("CPU1", 2.0) ]
          r.Timing.cpu_busy);
  ]

let bus_tests =
  [
    test "bus contention serializes inter-CPU transfers" (fun () ->
        (* Two producer threads on CPU1/CPU2 both feed CPU3 over the
           bus: with contention the second transfer waits. *)
        let caam =
          let thread name blocks =
            List.fold_left (fun sys f -> f sys) (S.empty name) blocks
          in
          let producer name =
            thread name
              [
                (fun sys -> S.add_block ~params:[ ("Value", B.P_float 1.0) ] sys B.Constant "c");
                (fun sys -> S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Outport "Out1");
                (fun sys -> S.add_line sys ~src:(pr "c" 1) ~dst:(pr "Out1" 1));
              ]
          in
          let consumer =
            thread "T3"
              [
                (fun sys -> S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Inport "In1");
                (fun sys -> S.add_block ~params:[ ("Port", B.P_int 2) ] sys B.Inport "In2");
                (fun sys -> S.add_block ~params:[ ("Inputs", B.P_string "++") ] sys B.Sum "s");
                (fun sys -> S.add_block sys B.Terminator "t");
                (fun sys -> S.add_line sys ~src:(pr "In1" 1) ~dst:(pr "s" 1));
                (fun sys -> S.add_line sys ~src:(pr "In2" 1) ~dst:(pr "s" 2));
                (fun sys -> S.add_line sys ~src:(pr "s" 1) ~dst:(pr "t" 1));
              ]
          in
          let cpu name inner boundary =
            let sys = S.empty name in
            let sys = boundary sys in
            let sys = S.add_block ~system:inner sys B.Subsystem inner.S.sys_name in
            let sys = Caam.mark sys inner.S.sys_name Caam.Thread in
            sys
          in
          let cpu1 =
            let sys = cpu "CPU1" (producer "T1") Fun.id in
            let sys = S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Outport "Out1" in
            S.add_line sys ~src:(pr "T1" 1) ~dst:(pr "Out1" 1)
          in
          let cpu2 =
            let sys = cpu "CPU2" (producer "T2") Fun.id in
            let sys = S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Outport "Out1" in
            S.add_line sys ~src:(pr "T2" 1) ~dst:(pr "Out1" 1)
          in
          let cpu3 =
            let sys = cpu "CPU3" consumer Fun.id in
            let sys = S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Inport "In1" in
            let sys = S.add_block ~params:[ ("Port", B.P_int 2) ] sys B.Inport "In2" in
            let sys = S.add_line sys ~src:(pr "In1" 1) ~dst:(pr "T3" 1) in
            S.add_line sys ~src:(pr "In2" 1) ~dst:(pr "T3" 2)
          in
          let top = S.empty "bus" in
          let top = S.add_block ~system:cpu1 top B.Subsystem "CPU1" in
          let top = Caam.mark top "CPU1" Caam.Cpu in
          let top = S.add_block ~system:cpu2 top B.Subsystem "CPU2" in
          let top = Caam.mark top "CPU2" Caam.Cpu in
          let top = S.add_block ~system:cpu3 top B.Subsystem "CPU3" in
          let top = Caam.mark top "CPU3" Caam.Cpu in
          let splice top src dst_port name =
            let top =
              S.add_block
                ~params:
                  [ (Caam.protocol_param, B.P_string "GFIFO");
                    (Caam.role_param, B.P_string "comm") ]
                top B.Channel name
            in
            let top = S.add_line top ~src ~dst:(pr name 1) in
            S.add_line top ~src:(pr name 1) ~dst:{ S.block = "CPU3"; S.port = dst_port }
          in
          let top = splice top (pr "CPU1" 1) 1 "ch1" in
          let top = splice top (pr "CPU2" 1) 2 "ch2" in
          Model.make ~name:"bus" top
        in
        let sdf = Sdf.of_model caam in
        let contended = Timing.evaluate sdf in
        let free =
          Timing.evaluate
            ~model:{ Timing.default_cost_model with Timing.bus_serialized = false }
            sdf
        in
        (* two 10-cost transfers: serialized they take 20 on the bus *)
        check (Alcotest.float 1e-9) "bus busy" 20.0 contended.Timing.bus_busy;
        check Alcotest.bool "contention delays the consumer" true
          (contended.Timing.makespan > free.Timing.makespan +. 1e-9));
  ]

let kpn_tests =
  [
    test "producer/consumer" (fun () ->
        let outcome =
          Kpn.run
            [
              ("p", Kpn.producer ~out:"ch" [ 1.0; 2.0; 3.0 ]);
              ("c", Kpn.consumer ~inp:"ch" ~n:3);
            ]
        in
        check Alcotest.(option (float 1e-9)) "sum" (Some 6.0)
          (List.assoc_opt "c" outcome.Kpn.results);
        check Alcotest.(list (pair string int)) "drained" [] outcome.Kpn.channel_residue);
    test "map stage" (fun () ->
        let outcome =
          Kpn.run
            [
              ("p", Kpn.producer ~out:"a" [ 1.0; 2.0 ]);
              ("m", Kpn.map1 ~inp:"a" ~out:"b" ~n:2 (fun x -> x *. 10.0));
              ("c", Kpn.consumer ~inp:"b" ~n:2);
            ]
        in
        check Alcotest.(option (float 1e-9)) "sum" (Some 30.0)
          (List.assoc_opt "c" outcome.Kpn.results));
    test "zip_with joins two streams" (fun () ->
        let outcome =
          Kpn.run
            [
              ("p1", Kpn.producer ~out:"a" [ 1.0; 2.0 ]);
              ("p2", Kpn.producer ~out:"b" [ 10.0; 20.0 ]);
              ("z", Kpn.zip_with ~in1:"a" ~in2:"b" ~out:"c" ~n:2 ( +. ));
              ("c", Kpn.consumer ~inp:"c" ~n:2);
            ]
        in
        check Alcotest.(option (float 1e-9)) "sum" (Some 33.0)
          (List.assoc_opt "c" outcome.Kpn.results));
    test "deadlock detected" (fun () ->
        match Kpn.run [ ("starved", Kpn.consumer ~inp:"never" ~n:1) ] with
        | exception Kpn.Deadlock [ "starved" ] -> ()
        | exception Kpn.Deadlock _ -> Alcotest.fail "wrong processes"
        | _ -> Alcotest.fail "expected Deadlock");
    test "deadlock victims reported in sorted order" (fun () ->
        (* Three starved consumers, registered in reverse-alphabetical
           order: the blocked-process list must come back sorted, not in
           registration (or scheduling) order. *)
        let starving name = (name, Kpn.consumer ~inp:("never_" ^ name) ~n:1) in
        match Kpn.run [ starving "zeta"; starving "mid"; starving "alpha" ] with
        | exception Kpn.Deadlock victims ->
            check
              Alcotest.(list string)
              "sorted" [ "alpha"; "mid"; "zeta" ] victims
        | _ -> Alcotest.fail "expected Deadlock");
    test "fuel exhausts on livelock" (fun () ->
        let rec ping () = Kpn.Write ("loop", 0.0, fun () -> drain ())
        and drain () = Kpn.Read ("loop", fun _ -> ping ()) in
        match Kpn.run ~fuel:100 [ ("spinner", ping ()) ] with
        | exception Kpn.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected Out_of_fuel");
    test "of_sdf matches the SDF executor" (fun () ->
        let m = counter () in
        let sdf = Sdf.of_model m in
        let rounds = 5 in
        let reference = Exec.run ~rounds sdf in
        let network = Kpn.of_sdf ~rounds sdf in
        let outcome = Kpn.run network in
        (* The sink process result is the last sample of the trace. *)
        let expected = (List.assoc "out" reference.Exec.traces).(rounds - 1) in
        check Alcotest.(option (float 1e-9)) "last sample" (Some expected)
          (List.assoc_opt "out" outcome.Kpn.results));
    test "of_sdf runs a cyclic CAAM thanks to delay priming" (fun () ->
        let sdf = Sdf.of_model (counter ()) in
        let outcome = Kpn.run (Kpn.of_sdf ~rounds:4 sdf) in
        check Alcotest.bool "completed" true (outcome.Kpn.steps > 0));
  ]

let suite =
  [
    ("dataflow:sdf", sdf_tests);
    ("dataflow:exec", exec_tests);
    ("dataflow:timing", timing_tests);
    ("dataflow:bus", bus_tests);
    ("dataflow:kpn", kpn_tests);
  ]
