(* Edge cases not covered by the feature suites: idle threads, multiple
   sequence diagrams, flat-style execution, odd mdl values, and small
   API corners. *)

module U = Umlfront_uml
module Core = Umlfront_core
module B = Umlfront_simulink.Block
module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Parser = Umlfront_simulink.Mdl_parser
module Writer = Umlfront_simulink.Mdl_writer
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Lc = Umlfront_taskgraph.Linear_clustering
module G = Umlfront_taskgraph.Graph
module Cs = Umlfront_casestudies

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let arg = U.Sequence.arg
let f32 = U.Datatype.D_float

let mapping_corner_tests =
  [
    test "idle thread becomes an empty Thread-SS" (fun () ->
        let b = U.Builder.create "idle" in
        U.Builder.thread b "Busy";
        U.Builder.thread b "Idle";
        U.Builder.io_device b "IO";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"Busy" ~cpu:"CPU";
        U.Builder.allocate b ~thread:"Idle" ~cpu:"CPU";
        U.Builder.call b ~from:"Busy" ~target:"IO" "getIn" ~result:(arg "x" f32);
        U.Builder.call b ~from:"Busy" ~target:"w" "f" ~args:[ arg "x" f32 ]
          ~result:(arg "y" f32);
        U.Builder.call b ~from:"Busy" ~target:"IO" "setOut" ~args:[ arg "y" f32 ];
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (U.Builder.finish b) in
        check Alcotest.int "both threads placed" 2
          (List.length (Umlfront_simulink.Caam.thread_names out.Core.Flow.caam));
        let outcome = Exec.run ~rounds:2 (Sdf.of_model out.Core.Flow.caam) in
        check Alcotest.int "runs" 2 outcome.Exec.rounds);
    test "behaviour split across two sequence diagrams" (fun () ->
        let b = U.Builder.create "twosd" in
        U.Builder.thread b "T";
        U.Builder.io_device b "IO";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
        U.Builder.call b ~sd:"acquire" ~from:"T" ~target:"IO" "getIn"
          ~result:(arg "x" f32);
        U.Builder.call b ~sd:"process" ~from:"T" ~target:"w" "f" ~args:[ arg "x" f32 ]
          ~result:(arg "y" f32);
        U.Builder.call b ~sd:"process" ~from:"T" ~target:"IO" "setOut"
          ~args:[ arg "y" f32 ];
        let uml = U.Builder.finish b in
        check Alcotest.int "two diagrams" 2 (List.length uml.U.Model.sequences);
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        check Alcotest.int "f block present" 1
          (let n = ref 0 in
           S.iter_systems
             (fun _ sys ->
               n := !n + List.length (S.blocks_of_type sys B.S_function))
             out.Core.Flow.caam.Model.root;
           !n));
  ]

let api_corner_tests =
  [
    test "run_bounded rejects zero clusters" (fun () ->
        let g = G.of_lists ~nodes:[ ("a", 1.0) ] ~edges:[] in
        match Lc.run_bounded ~max_clusters:0 g with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "remove_line on a missing line is a no-op" (fun () ->
        let sys = S.add_block (S.empty "s") B.Gain "g" in
        let sys' =
          S.remove_line sys ~src:{ S.block = "g"; S.port = 1 }
            ~dst:{ S.block = "g"; S.port = 1 }
        in
        check Alcotest.int "unchanged" (List.length (S.lines sys)) (List.length (S.lines sys')));
    test "mdl stop time with exponent round-trips" (fun () ->
        let m = Model.make ~stop_time:1.5e-3 ~name:"m" (S.empty "m") in
        let m' = Parser.parse_string (Writer.to_string m) in
        check (Alcotest.float 1e-12) "stop" 1.5e-3 m'.Model.stop_time);
    test "empty system mdl round-trips" (fun () ->
        let m = Model.make ~name:"empty" (S.empty "empty") in
        let m' = Parser.parse_string (Writer.to_string m) in
        check Alcotest.int "no blocks" 0 (S.total_blocks m'.Model.root));
    test "report caam tree names every channel protocol" (fun () ->
        let out = Core.Flow.run (Cs.Didactic.model ()) in
        let tree = Core.Report.caam_tree out.Core.Flow.caam in
        check Alcotest.bool "swfifo" true (Astring_contains.contains tree "channel SWFIFO");
        check Alcotest.bool "gfifo" true (Astring_contains.contains tree "channel GFIFO"));
    test "datatype array of named round-trips" (fun () ->
        let t = U.Datatype.D_array (U.Datatype.D_named ("pix", 3), 16) in
        check Alcotest.bool "rt" true
          (U.Datatype.equal t (U.Datatype.of_string (U.Datatype.to_string t)));
        check Alcotest.int "size" 48 (U.Datatype.size_bytes t));
    test "xml parse_file and save round-trip" (fun () ->
        let path = Filename.temp_file "umlfront" ".xml" in
        U.Xmi.save (Cs.Didactic.model ()) path;
        let reloaded = U.Xmi.load path in
        check Alcotest.int "still valid" 0 (List.length (U.Validate.check reloaded)));
  ]

let suite =
  [ ("coverage:mapping", mapping_corner_tests); ("coverage:api", api_corner_tests) ]
