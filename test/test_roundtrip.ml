(* Automatic partitioning (§6) and the reverse CAAM→UML capture (§2's
   GeneralStore comparison), including behavioural round-trips through
   the SDF executor. *)

module U = Umlfront_uml
module Core = Umlfront_core
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module G = Umlfront_taskgraph.Graph
module Cs = Umlfront_casestudies

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let arg = U.Sequence.arg
let f32 = U.Datatype.D_float

(* A single-threaded pipeline with two parallel branches:
   in -> prep -> {left, right} -> merge -> out. *)
let monolithic () =
  let b = U.Builder.create "mono" in
  U.Builder.thread b "T";
  U.Builder.io_device b "IO";
  U.Builder.passive_object b ~cls:"Stage" "stage";
  U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "x" f32);
  U.Builder.call b ~from:"T" ~target:"stage" "prep" ~args:[ arg "x" f32 ]
    ~result:(arg "p" f32);
  U.Builder.call b ~from:"T" ~target:"stage" "left" ~args:[ arg "p" f32 ]
    ~result:(arg "a" f32);
  U.Builder.call b ~from:"T" ~target:"stage" "right" ~args:[ arg "p" f32 ]
    ~result:(arg "bb" f32);
  U.Builder.call b ~from:"T" ~target:"stage" "merge"
    ~args:[ arg "a" f32; arg "bb" f32 ]
    ~result:(arg "y" f32);
  U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg "y" f32 ];
  U.Builder.finish b

let traces_of uml strategy =
  let out = Core.Flow.run ~strategy uml in
  let sdf = Sdf.of_model out.Core.Flow.caam in
  (out, (Exec.run ~rounds:6 sdf).Exec.traces)

let partitioning_tests =
  [
    test "call graph follows token flow" (fun () ->
        let g = Core.Partitioning.call_graph (monolithic ()) in
        check Alcotest.int "4 functional calls" 4 (G.node_count g);
        check Alcotest.int "4 data edges" 4 (G.edge_count g));
    test "multi-thread model rejected" (fun () ->
        match Core.Partitioning.run (Cs.Didactic.model ()) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "partition covers every functional call" (fun () ->
        let r = Core.Partitioning.run (monolithic ()) in
        check Alcotest.int "4 calls homed" 4 (List.length r.Core.Partitioning.thread_of_call));
    test "parallel branches split across threads" (fun () ->
        let r = Core.Partitioning.run (monolithic ()) in
        let threads =
          List.sort_uniq compare (List.map snd r.Core.Partitioning.thread_of_call)
        in
        check Alcotest.bool ">= 2 threads" true (List.length threads >= 2);
        check Alcotest.bool "cuts recorded" true (r.Core.Partitioning.cut_tokens <> []));
    test "bounded partitioning respects the limit" (fun () ->
        let r = Core.Partitioning.run ~threads:2 (monolithic ()) in
        let threads =
          List.sort_uniq compare (List.map snd r.Core.Partitioning.thread_of_call)
        in
        check Alcotest.bool "<= 2" true (List.length threads <= 2));
    test "partitioned model is well-formed and flows" (fun () ->
        let r = Core.Partitioning.run (monolithic ()) in
        check Alcotest.int "valid" 0
          (List.length (U.Validate.check r.Core.Partitioning.partitioned));
        let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear r.Core.Partitioning.partitioned in
        check Alcotest.(list string) "caam ok" [] (Caam.check out.Core.Flow.caam));
    test "partitioning preserves behaviour" (fun () ->
        let uml = monolithic () in
        let r = Core.Partitioning.run uml in
        let _, reference = traces_of uml Core.Flow.Infer_linear in
        let _, partitioned =
          traces_of r.Core.Partitioning.partitioned Core.Flow.Infer_linear
        in
        check Alcotest.int "same port count" (List.length reference)
          (List.length partitioned);
        List.iter
          (fun (port, samples) ->
            match List.assoc_opt port partitioned with
            | Some samples' ->
                check Alcotest.(array (float 1e-9)) port samples samples'
            | None -> Alcotest.fail ("missing port " ^ port))
          reference);
  ]

let capture_roundtrip uml strategy =
  let out = Core.Flow.run ~strategy uml in
  let recovered = Core.Capture.run out.Core.Flow.caam in
  (out, recovered)

let capture_tests =
  [
    test "captured model is well-formed" (fun () ->
        let _, recovered = capture_roundtrip (Cs.Didactic.model ()) Core.Flow.Use_deployment in
        check Alcotest.int "valid" 0 (List.length (U.Validate.check recovered)));
    test "deployment recovered" (fun () ->
        let _, recovered = capture_roundtrip (Cs.Didactic.model ()) Core.Flow.Use_deployment in
        match U.Model.deployment recovered with
        | Some d ->
            check Alcotest.(list string) "cpus" [ "CPU1"; "CPU2" ]
              (U.Deployment.node_names d);
            check Alcotest.(option string) "T3 placement" (Some "CPU2")
              (U.Deployment.node_of_thread d "T3")
        | None -> Alcotest.fail "deployment lost");
    test "re-synthesis reproduces the structure" (fun () ->
        let out, recovered = capture_roundtrip (Cs.Didactic.model ()) Core.Flow.Use_deployment in
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        check Alcotest.int "cpu count"
          (List.length (Caam.cpus out.Core.Flow.caam))
          (List.length (Caam.cpus out2.Core.Flow.caam));
        check Alcotest.(list (pair string string)) "thread placement"
          (Caam.thread_names out.Core.Flow.caam)
          (Caam.thread_names out2.Core.Flow.caam);
        check Alcotest.int "inter channels" out.Core.Flow.inter_channels
          out2.Core.Flow.inter_channels;
        check Alcotest.int "intra channels" out.Core.Flow.intra_channels
          out2.Core.Flow.intra_channels);
    test "no extra temporal barriers on recapture (crane)" (fun () ->
        let out, recovered = capture_roundtrip (Cs.Crane_system.model ()) Core.Flow.Use_deployment in
        check Alcotest.int "original inserted one" 1 out.Core.Flow.delays_inserted;
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        check Alcotest.int "captured delay suffices" 0 out2.Core.Flow.delays_inserted);
    test "behavioural round-trip (didactic)" (fun () ->
        let out, recovered = capture_roundtrip (Cs.Didactic.model ()) Core.Flow.Use_deployment in
        let reference = (Exec.run ~rounds:6 (Sdf.of_model out.Core.Flow.caam)).Exec.traces in
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        let recovered_traces =
          (Exec.run ~rounds:6 (Sdf.of_model out2.Core.Flow.caam)).Exec.traces
        in
        List.iter
          (fun (port, samples) ->
            match List.assoc_opt port recovered_traces with
            | Some samples' -> check Alcotest.(array (float 1e-9)) port samples samples'
            | None -> Alcotest.fail ("missing port " ^ port))
          reference);
    test "behavioural round-trip (crane, with feedback)" (fun () ->
        let out, recovered = capture_roundtrip (Cs.Crane_system.model ()) Core.Flow.Use_deployment in
        let reference = (Exec.run ~rounds:8 (Sdf.of_model out.Core.Flow.caam)).Exec.traces in
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        let recovered_traces =
          (Exec.run ~rounds:8 (Sdf.of_model out2.Core.Flow.caam)).Exec.traces
        in
        List.iter
          (fun (port, samples) ->
            match List.assoc_opt port recovered_traces with
            | Some samples' -> check Alcotest.(array (float 1e-9)) port samples samples'
            | None -> Alcotest.fail ("missing port " ^ port))
          reference);
    test "non-CAAM model rejected" (fun () ->
        let plain = Model.make ~name:"x" (Umlfront_simulink.System.empty "x") in
        match Core.Capture.run plain with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "block paths that sanitize alike capture apart" (fun () ->
        (* T1's S-Functions calc and dec renamed x.y and x_y: both paths
           spell CPU1_T1_x_y once sanitized. *)
        let module S = Umlfront_simulink.System in
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Didactic.model ()) in
        let rename = function "calc" -> "x.y" | "dec" -> "x_y" | name -> name in
        let port (r : S.port_ref) = { r with S.block = rename r.S.block } in
        let root =
          S.map_systems
            (fun path sys ->
              if path <> [ "CPU1"; "T1" ] then sys
              else
                {
                  sys with
                  S.sys_blocks =
                    List.map (fun b -> { b with S.blk_name = rename b.S.blk_name }) sys.S.sys_blocks;
                  sys_lines =
                    List.map (fun (l : S.line) -> { S.src = port l.S.src; dst = port l.S.dst })
                      sys.S.sys_lines;
                })
            out.Core.Flow.caam.Model.root
        in
        let caam = { out.Core.Flow.caam with Model.root } in
        let recovered = Core.Capture.run caam in
        check Alcotest.int "valid" 0 (List.length (U.Validate.check recovered));
        let objects = List.map (fun i -> i.U.Classifier.inst_name) recovered.U.Model.instances in
        List.iter
          (fun o -> check Alcotest.bool o true (List.mem o objects))
          [ "o_CPU1_T1_x_y"; "o_CPU1_T1_x_y_2" ];
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        check Alcotest.(list string) "caam ok" [] (Caam.check out2.Core.Flow.caam);
        check Alcotest.(list (pair string string)) "same threads"
          (Caam.thread_names caam) (Caam.thread_names out2.Core.Flow.caam));
  ]

let pipeline_tests =
  [
    test "partition then capture then flow is stable" (fun () ->
        let r = Core.Partitioning.run (monolithic ()) in
        let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear r.Core.Partitioning.partitioned in
        let recovered = Core.Capture.run out.Core.Flow.caam in
        check Alcotest.int "valid" 0 (List.length (U.Validate.check recovered));
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        check Alcotest.(list string) "caam ok" [] (Caam.check out2.Core.Flow.caam));
  ]

let suite =
  [
    ("roundtrip:partitioning", partitioning_tests);
    ("roundtrip:capture", capture_tests);
    ("roundtrip:pipeline", pipeline_tests);
  ]
