(* Tests for the extension features: activity diagrams (§6 future
   work), design-space exploration, the Simulink metamodel bridge,
   auto-layout, SystemC generation, and trace export. *)

module U = Umlfront_uml
module Core = Umlfront_core
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Model = Umlfront_simulink.Model
module Layout = Umlfront_simulink.Layout
module Mm = Umlfront_metamodel.Mmodel
module Ecore = Umlfront_metamodel.Ecore_io
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Export = Umlfront_dataflow.Trace_export
module Fsm = Umlfront_fsm.Fsm
module Cs = Umlfront_casestudies

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains
let f32 = U.Datatype.D_float
let arg = U.Sequence.arg

let sample_activity =
  U.Activity.make ~name:"act" ~owner:"T"
    [
      U.Activity.Initial "start";
      U.Activity.action ~name:"a1" ~target:"io" ~result:(arg "x" f32) "getIn";
      U.Activity.Fork "split";
      U.Activity.action ~name:"a2" ~target:"w" ~args:[ arg "x" f32 ]
        ~result:(arg "y" f32) "left";
      U.Activity.action ~name:"a3" ~target:"w" ~args:[ arg "x" f32 ]
        ~result:(arg "z" f32) "right";
      U.Activity.Join "meet";
      U.Activity.action ~name:"a4" ~target:"w" ~args:[ arg "y" f32; arg "z" f32 ]
        ~result:(arg "r" f32) "merge";
      U.Activity.Final "stop";
    ]
    [
      U.Activity.edge ~source:"start" ~target:"a1" ();
      U.Activity.edge ~source:"a1" ~target:"split" ();
      U.Activity.edge ~source:"split" ~target:"a2" ();
      U.Activity.edge ~source:"split" ~target:"a3" ();
      U.Activity.edge ~source:"a2" ~target:"meet" ();
      U.Activity.edge ~source:"a3" ~target:"meet" ();
      U.Activity.edge ~source:"meet" ~target:"a4" ();
      U.Activity.edge ~source:"a4" ~target:"stop" ();
    ]

let activity_tests =
  [
    test "well-formed activity passes" (fun () ->
        check Alcotest.int "clean" 0 (List.length (U.Activity.check sample_activity)));
    test "two initial nodes flagged" (fun () ->
        let a =
          U.Activity.make ~name:"a" ~owner:"T"
            [ U.Activity.Initial "i1"; U.Activity.Initial "i2" ]
            []
        in
        check Alcotest.bool "flagged" true (U.Activity.check a <> []));
    test "dangling edge flagged" (fun () ->
        let a =
          U.Activity.make ~name:"a" ~owner:"T"
            [ U.Activity.Initial "i" ]
            [ U.Activity.edge ~source:"i" ~target:"ghost" () ]
        in
        check Alcotest.bool "flagged" true (U.Activity.check a <> []));
    test "unreachable action flagged" (fun () ->
        let a =
          U.Activity.make ~name:"a" ~owner:"T"
            [
              U.Activity.Initial "i";
              U.Activity.action ~name:"orphan" ~target:"w" "op";
            ]
            []
        in
        check Alcotest.bool "flagged" true (U.Activity.check a <> []));
    test "control-flow cycle flagged" (fun () ->
        let a =
          U.Activity.make ~name:"a" ~owner:"T"
            [
              U.Activity.Initial "i";
              U.Activity.action ~name:"x" ~target:"w" "op";
              U.Activity.action ~name:"y" ~target:"w" "op2";
            ]
            [
              U.Activity.edge ~source:"i" ~target:"x" ();
              U.Activity.edge ~source:"x" ~target:"y" ();
              U.Activity.edge ~source:"y" ~target:"x" ();
            ]
        in
        check Alcotest.bool "flagged" true (U.Activity.check a <> []));
    test "to_messages respects control order" (fun () ->
        let msgs = U.Activity.to_messages sample_activity in
        check Alcotest.(list string) "ops" [ "getIn"; "left"; "right"; "merge" ]
          (List.map (fun (m : U.Sequence.message) -> m.U.Sequence.msg_operation) msgs);
        check Alcotest.bool "owner is caller" true
          (List.for_all
             (fun (m : U.Sequence.message) -> m.U.Sequence.msg_from = "T")
             msgs));
    test "model behaviours merges activities" (fun () ->
        let uml = Cs.Elevator_system.model () in
        let bhv = U.Model.behaviours uml in
        check Alcotest.bool "synthetic diagram added" true (List.length bhv >= 1);
        let total_msgs =
          List.fold_left (fun n sd -> n + List.length sd.U.Sequence.sd_messages) 0 bhv
        in
        check Alcotest.int "all actions linearized" 9 total_msgs);
    test "activity XMI round-trip" (fun () ->
        let uml = Cs.Elevator_system.model () in
        let uml' = U.Xmi.of_string (U.Xmi.to_string uml) in
        check Alcotest.int "activities kept" 3 (List.length uml'.U.Model.activities);
        let once = U.Xmi.to_string uml' in
        check Alcotest.string "fixpoint" once (U.Xmi.to_string (U.Xmi.of_string once)));
    test "flow consumes activity-specified threads" (fun () ->
        let out = Core.Flow.run (Cs.Elevator_system.model ()) in
        check Alcotest.int "one barrier" 1 out.Core.Flow.delays_inserted;
        check Alcotest.(list string) "caam ok" []
          (Umlfront_simulink.Caam.check out.Core.Flow.caam));
  ]

let dse_tests =
  [
    test "explore covers every platform size once" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        let sizes = List.map (fun c -> c.Core.Dse.cpus) r.Core.Dse.candidates in
        check Alcotest.bool "ascending distinct" true
          (List.sort_uniq compare sizes = sizes));
    test "best has minimal makespan" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        List.iter
          (fun c ->
            check Alcotest.bool "best <= candidate" true
              (r.Core.Dse.best.Core.Dse.makespan <= c.Core.Dse.makespan +. 1e-9))
          r.Core.Dse.candidates);
    test "pareto set is mutually non-dominating" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a != b then
                  check Alcotest.bool "no domination" false
                    (a.Core.Dse.cpus <= b.Core.Dse.cpus
                    && a.Core.Dse.makespan <= b.Core.Dse.makespan -. 1e-9))
              r.Core.Dse.pareto)
          r.Core.Dse.pareto);
    test "single-CPU candidate has no inter-CPU traffic" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        match List.find_opt (fun c -> c.Core.Dse.cpus = 1) r.Core.Dse.candidates with
        | Some c -> check Alcotest.int "no gfifo" 0 c.Core.Dse.inter_tokens
        | None -> Alcotest.fail "no single-CPU candidate");
    test "period never exceeds makespan and improves with CPUs" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        List.iter
          (fun c ->
            check Alcotest.bool "period <= makespan" true
              (c.Core.Dse.period <= c.Core.Dse.makespan +. 1e-9))
          r.Core.Dse.candidates;
        let by_cpus = List.map (fun c -> (c.Core.Dse.cpus, c.Core.Dse.period)) r.Core.Dse.candidates in
        let rec monotone = function
          | (_, p1) :: ((_, p2) :: _ as rest) ->
              check Alcotest.bool "period non-increasing" true (p2 <= p1 +. 1e-9);
              monotone rest
          | [ _ ] | [] -> ()
        in
        monotone by_cpus);
    test "same-signal read and write get distinct top ports" (fun () ->
        let b = U.Builder.create "loopback" in
        U.Builder.thread b "T";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.io_device b "IO";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
        U.Builder.call b ~from:"T" ~target:"IO" "getSample" ~result:(arg "x" f32);
        U.Builder.call b ~from:"T" ~target:"w" "f" ~args:[ arg "x" f32 ]
          ~result:(arg "y" f32);
        U.Builder.call b ~from:"T" ~target:"IO" "setSample" ~args:[ arg "y" f32 ];
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (U.Builder.finish b) in
        check Alcotest.int "structural" 0 (List.length (Model.validate out.Core.Flow.caam));
        check Alcotest.int "1 in 1 out" 2
          (List.length (S.blocks_of_type out.Core.Flow.caam.Model.root B.Inport)
          + List.length (S.blocks_of_type out.Core.Flow.caam.Model.root B.Outport)));
    test "threadless model rejected" (fun () ->
        let uml = U.Model.make "empty" in
        match Core.Dse.explore uml with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "summary marks best and pareto" (fun () ->
        let r = Core.Dse.explore (Cs.Synthetic_system.model ()) in
        let s = Core.Dse.summary r in
        check Alcotest.bool "best marked" true (contains s "<- best");
        check Alcotest.bool "pareto marked" true (contains s "pareto"));
  ]

let metamodel_bridge_tests =
  [
    test "simulink round-trip preserves the CAAM" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let dynamic = Core.Metamodels.simulink_to_mmodel out.Core.Flow.caam in
        check Alcotest.int "valid" 0 (List.length (Mm.validate dynamic));
        let back = Core.Metamodels.mmodel_to_simulink dynamic in
        check Alcotest.string "identical mdl"
          (Umlfront_simulink.Mdl_writer.to_string out.Core.Flow.caam)
          (Umlfront_simulink.Mdl_writer.to_string back));
    test "ecore XML of the CAAM parses back" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let xml = Core.Flow.ecore_xml out in
        let reloaded = Ecore.of_string Core.Metamodels.simulink_mm xml in
        let back = Core.Metamodels.mmodel_to_simulink reloaded in
        check Alcotest.(list (pair string int)) "stats" (Model.stats out.Core.Flow.caam)
          (Model.stats back));
  ]

let layout_tests =
  [
    test "every block gets a position" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let missing = ref 0 in
        S.iter_systems
          (fun _ sys ->
            List.iter
              (fun b -> if Layout.position b = None then incr missing)
              (S.blocks sys))
          out.Core.Flow.caam.Model.root;
        check Alcotest.int "none missing" 0 !missing);
    test "no two blocks of a system overlap" (fun () ->
        let out = Core.Flow.run (Cs.Synthetic_system.model ()) in
        S.iter_systems
          (fun _ sys ->
            let boxes = List.filter_map Layout.position (S.blocks sys) in
            let overlap (l1, t1, r1, b1) (l2, t2, r2, b2) =
              l1 < r2 && l2 < r1 && t1 < b2 && t2 < b1
            in
            let rec pairs = function
              | [] -> ()
              | x :: rest ->
                  List.iter
                    (fun y -> check Alcotest.bool "no overlap" false (overlap x y))
                    rest;
                  pairs rest
            in
            pairs boxes)
          out.Core.Flow.caam.Model.root);
    test "dataflow goes left to right" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let sys = out.Core.Flow.caam.Model.root in
        List.iter
          (fun (l : S.line) ->
            match
              ( Layout.position (S.find_block_exn sys l.S.src.S.block),
                Layout.position (S.find_block_exn sys l.S.dst.S.block) )
            with
            | Some (sl, _, _, _), Some (dl, _, _, _) ->
                check Alcotest.bool "monotone x" true (sl <= dl)
            | _, _ -> Alcotest.fail "missing position")
          (S.lines sys));
    test "cyclic systems still lay out" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
        (* Tcontrol holds the feedback loop; all its blocks placed. *)
        check Alcotest.int "structural" 0
          (List.length (Model.validate out.Core.Flow.caam)));
    test "mdl with positions round-trips" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let reparsed =
          Umlfront_simulink.Mdl_parser.parse_string out.Core.Flow.mdl
        in
        check Alcotest.(list (pair string int)) "stats" (Model.stats out.Core.Flow.caam)
          (Model.stats reparsed));
  ]

let systemc_tests =
  [
    test "module per thread and fifo plumbing" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Didactic.model ()) in
        let sc = Umlfront_codegen.Gen_systemc.generate out.Core.Flow.caam in
        check Alcotest.bool "module T1" true (contains sc "SC_MODULE(Thread_CPU1_T1)");
        check Alcotest.bool "module T3" true (contains sc "SC_MODULE(Thread_CPU2_T3)");
        check Alcotest.bool "env" true (contains sc "SC_MODULE(Environment)");
        check Alcotest.bool "fifo decl" true (contains sc "sc_fifo<double>");
        check Alcotest.bool "sc_main" true (contains sc "int sc_main");
        check Alcotest.bool "protocol comment" true (contains sc "GFIFO"));
    test "delay becomes module state" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
        let sc = Umlfront_codegen.Gen_systemc.generate out.Core.Flow.caam in
        check Alcotest.bool "state member" true (contains sc "double state_"));
    test "balanced braces" (fun () ->
        let out = Core.Flow.run (Cs.Synthetic_system.model ()) in
        let sc = Umlfront_codegen.Gen_systemc.generate out.Core.Flow.caam in
        let depth = ref 0 in
        String.iter
          (fun c ->
            if c = '{' then incr depth else if c = '}' then decr depth)
          sc;
        check Alcotest.int "balanced" 0 !depth);
  ]

let export_tests =
  [
    test "csv has a row per round" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let csv = Export.traces_csv (Exec.run ~rounds:5 sdf) in
        let lines = String.split_on_char '\n' (String.trim csv) in
        check Alcotest.int "header + 5" 6 (List.length lines);
        check Alcotest.bool "header" true (contains (List.hd lines) "round,"));
    test "schedule csv covers every placed actor" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let csv = Export.schedule_csv sdf in
        let placed =
          List.filter (fun (a : Sdf.actor) -> a.Sdf.actor_path <> []) sdf.Sdf.actors
        in
        let rows = List.length (String.split_on_char '\n' (String.trim csv)) - 1 in
        check Alcotest.int "rows" (List.length placed) rows);
    test "gantt prints one lane per cpu" (fun () ->
        let out = Core.Flow.run (Cs.Synthetic_system.model ()) in
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let lanes = String.split_on_char '\n' (String.trim (Export.gantt sdf)) in
        check Alcotest.int "4 lanes" 4 (List.length lanes));
  ]

let plantuml_tests =
  [
    test "every diagram kind is exported" (fun () ->
        let uml = Cs.Elevator_system.model () in
        let diagrams = U.Plantuml.model uml in
        check Alcotest.int "1 classes + 3 activities + 1 chart" 5 (List.length diagrams);
        List.iter
          (fun (_, text) ->
            check Alcotest.bool "delimited" true
              (contains text "@startuml" && contains text "@enduml"))
          diagrams);
    test "sequence export shows calls and returns" (fun () ->
        let uml = Cs.Didactic.model () in
        let text =
          List.assoc "main" (U.Plantuml.model uml)
        in
        check Alcotest.bool "call" true (contains text "\"T1\" -> \"calcObj\" : calc(a)");
        check Alcotest.bool "return" true (contains text "\"calcObj\" --> \"T1\" : r1"));
    test "deployment export carries the SPT stereotypes" (fun () ->
        let uml = Cs.Didactic.model () in
        let text = List.assoc "didactic_deployment" (U.Plantuml.model uml) in
        check Alcotest.bool "engine" true (contains text "<<SAengine>>");
        check Alcotest.bool "thread" true (contains text "<<SASchedRes>>");
        check Alcotest.bool "bus link" true (contains text "\"CPU1\" -- \"bus\""));
    test "statechart export nests composites and initial" (fun () ->
        let text = U.Plantuml.statechart Cs.Elevator_system.mode_chart in
        check Alcotest.bool "nested" true (contains text "state \"moving\" {");
        check Alcotest.bool "initial" true (contains text "[*] --> \"idle\"");
        check Alcotest.bool "trigger" true (contains text ": arrived"));
  ]

let metrics_tests =
  [
    test "didactic metrics hand-checked" (fun () ->
        let x = U.Metrics.measure (Cs.Didactic.model ()) in
        check Alcotest.int "threads" 3 x.U.Metrics.threads;
        (* calc, dec, mult, gain, filter *)
        check Alcotest.int "functional" 5 x.U.Metrics.functional_calls;
        (* GetValue + SetValue *)
        check Alcotest.int "comm" 2 x.U.Metrics.comm_messages;
        check Alcotest.int "io" 2 x.U.Metrics.io_calls;
        (* r1 feeds dec and mult: reuse above 1 *)
        check Alcotest.bool "reuse > 1" true (x.U.Metrics.token_reuse > 1.0));
    test "fan-in/out follow data direction" (fun () ->
        let x = U.Metrics.measure (Cs.Didactic.model ()) in
        (* T3 provides data to T1 (Get), T1 sends to T2 *)
        check Alcotest.(option int) "T3 out" (Some 1) (List.assoc_opt "T3" x.U.Metrics.fan_out);
        check Alcotest.(option int) "T1 in" (Some 1) (List.assoc_opt "T1" x.U.Metrics.fan_in);
        check Alcotest.(option int) "T2 out" (Some 0) (List.assoc_opt "T2" x.U.Metrics.fan_out));
    test "report text mentions every thread" (fun () ->
        let text = U.Metrics.report (Cs.Synthetic_system.model ()) in
        List.iter
          (fun th -> check Alcotest.bool th true (contains text th))
          Cs.Synthetic_system.thread_names);
  ]

let kpn_gen_tests =
  [
    test "kpn emission names channels and outputs" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (Cs.Crane_system.model ()) in
        let ml = Umlfront_codegen.Gen_kpn.generate out.Core.Flow.caam in
        check Alcotest.bool "channel binding" true (contains ml "let ch_");
        check Alcotest.bool "embedded mdl" true (contains ml "{mdl|Model {");
        check Alcotest.bool "runner" true (contains ml "Kpn.run (network ())");
        check Alcotest.bool "output filter" true (contains ml "\"Voltage\""));
    test "embedded mdl in kpn emission reparses" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let ml = Umlfront_codegen.Gen_kpn.generate out.Core.Flow.caam in
        (* extract the {mdl|...|mdl} payload and reparse it *)
        let index_of needle from =
          let n = String.length needle in
          let rec at i =
            if i + n > String.length ml then Alcotest.fail ("missing " ^ needle)
            else if String.sub ml i n = needle then i
            else at (i + 1)
          in
          at from
        in
        let start = index_of "{mdl|" 0 + 5 in
        let stop = index_of "|mdl}" start in
        let payload = String.sub ml start (stop - start) in
        let reparsed = Umlfront_simulink.Mdl_parser.parse_string payload in
        check Alcotest.(list (pair string int)) "stats" (Model.stats out.Core.Flow.caam)
          (Model.stats reparsed));
  ]

let audit_tests =
  [
    test "case studies audit clean" (fun () ->
        List.iter
          (fun (name, uml, strategy) ->
            let out = Core.Flow.run ~strategy uml in
            check Alcotest.(list string) name []
              (List.map
                 (fun (f : Core.Consistency.finding) ->
                   f.Core.Consistency.subject ^ ": " ^ f.Core.Consistency.problem)
                 (Core.Consistency.audit uml out)))
          [
            ("didactic", Cs.Didactic.model (), Core.Flow.Use_deployment);
            ("crane", Cs.Crane_system.model (), Core.Flow.Use_deployment);
            ("synthetic", Cs.Synthetic_system.model (), Core.Flow.Infer_linear);
            ("mjpeg", Cs.Mjpeg_system.model (), Core.Flow.Infer_linear);
            ("elevator", Cs.Elevator_system.model (), Core.Flow.Prefer_deployment);
          ]);
    test "audit flags a doctored trace target" (fun () ->
        let uml = Cs.Didactic.model () in
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        Umlfront_metamodel.Trace.record out.Core.Flow.trace ~rule:"thread_to_thread_ss"
          ~sources:[ "T1" ] ~targets:[ "CPU9/Ghost" ];
        check Alcotest.bool "flagged" true (Core.Consistency.audit uml out <> []));
    test "audit report prints clean" (fun () ->
        let uml = Cs.Didactic.model () in
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        check Alcotest.bool "clean" true
          (contains (Core.Consistency.audit_report uml out) "clean"));
  ]

let dot_tests =
  [
    test "task graph dot lists nodes and weighted edges" (fun () ->
        let g = Core.Allocation.task_graph (Cs.Synthetic_system.model ()) in
        let d = Umlfront_taskgraph.Dot.graph g in
        check Alcotest.bool "digraph" true (contains d "digraph");
        check Alcotest.bool "node A" true (contains d "\"A\"");
        check Alcotest.bool "edge label" true (contains d "label=\"10\""));
    test "clustered dot draws one box per CPU" (fun () ->
        let g = Core.Allocation.task_graph (Cs.Synthetic_system.model ()) in
        let c = Umlfront_taskgraph.Linear_clustering.run g in
        let d = Umlfront_taskgraph.Dot.clustered g c in
        List.iter
          (fun i ->
            check Alcotest.bool (Printf.sprintf "cluster_%d" i) true
              (contains d (Printf.sprintf "subgraph cluster_%d" i)))
          [ 0; 1; 2; 3 ]);
    test "block diagram dot nests subsystems and resolves boundary ports" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let d = Umlfront_simulink.Block_dot.of_model out.Core.Flow.caam in
        check Alcotest.bool "cluster label" true (contains d "label=\"T1\"");
        check Alcotest.bool "no unresolved port" false (contains d "__?");
        check Alcotest.bool "channel shape" true (contains d "parallelogram"));
  ]

let example_smoke_tests =
  let run_example name =
    test (name ^ " example runs") (fun () ->
        let bin = Printf.sprintf "../examples/%s.exe" name in
        if Sys.file_exists bin then
          check Alcotest.int "exit 0" 0 (Sys.command (bin ^ " >/dev/null 2>&1")))
  in
  List.map run_example
    [ "quickstart"; "crane"; "synthetic"; "mjpeg"; "elevator"; "autopartition" ]

let cli_tests =
  [
    test "umlfront example | map | dse round-trip" (fun () ->
        let bin = "../bin/umlfront.exe" in
        if not (Sys.file_exists bin) then ()
        else begin
          let tmp = Filename.temp_file "umlfront_cli" ".xml" in
          check Alcotest.int "example" 0
            (Sys.command (Printf.sprintf "%s example crane -o %s >/dev/null" bin tmp));
          let mdl = Filename.temp_file "umlfront_cli" ".mdl" in
          check Alcotest.int "map" 0
            (Sys.command (Printf.sprintf "%s map %s -o %s >/dev/null" bin tmp mdl));
          let parsed = Umlfront_simulink.Mdl_parser.parse_file mdl in
          check Alcotest.string "model name" "crane" parsed.Model.model_name;
          check Alcotest.int "dse" 0
            (Sys.command (Printf.sprintf "%s dse %s >/dev/null" bin tmp))
        end);
  ]

let suite =
  [
    ("ext:activity", activity_tests);
    ("ext:dse", dse_tests);
    ("ext:metamodels", metamodel_bridge_tests);
    ("ext:layout", layout_tests);
    ("ext:systemc", systemc_tests);
    ("ext:export", export_tests);
    ("ext:plantuml", plantuml_tests);
    ("ext:metrics", metrics_tests);
    ("ext:kpn_gen", kpn_gen_tests);
    ("ext:audit", audit_tests);
    ("ext:dot", dot_tests);
    ("ext:examples", example_smoke_tests);
    ("ext:cli", cli_tests);
  ]
