module U = Umlfront_uml
open U

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let datatype_tests =
  [
    test "size of scalars" (fun () ->
        check Alcotest.int "int" 4 (Datatype.size_bytes Datatype.D_int);
        check Alcotest.int "float" 8 (Datatype.size_bytes Datatype.D_float);
        check Alcotest.int "bool" 1 (Datatype.size_bytes Datatype.D_bool);
        check Alcotest.int "void" 0 (Datatype.size_bytes Datatype.D_void));
    test "size of arrays and named" (fun () ->
        check Alcotest.int "arr" 32
          (Datatype.size_bytes (Datatype.D_array (Datatype.D_float, 4)));
        check Alcotest.int "named" 64
          (Datatype.size_bytes (Datatype.D_named ("block", 64))));
    test "of_string inverse of to_string" (fun () ->
        List.iter
          (fun t ->
            check Alcotest.bool (Datatype.to_string t) true
              (Datatype.equal t (Datatype.of_string (Datatype.to_string t))))
          [
            Datatype.D_void;
            Datatype.D_int;
            Datatype.D_array (Datatype.D_int, 16);
            Datatype.D_array (Datatype.D_array (Datatype.D_bool, 2), 3);
            Datatype.D_named ("buf", 128);
          ]);
    test "of_string rejects junk" (fun () ->
        match Datatype.of_string "whatever" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let operation_tests =
  let op =
    Operation.make "f"
      ~params:
        [
          Operation.param "a" Datatype.D_int;
          Operation.param ~dir:Operation.Out "b" Datatype.D_float;
          Operation.param ~dir:Operation.Inout "c" Datatype.D_bool;
          Operation.param ~dir:Operation.Return "r" Datatype.D_float;
        ]
  in
  [
    test "inputs are in and inout" (fun () ->
        check Alcotest.(list string) "inputs" [ "a"; "c" ]
          (List.map (fun p -> p.Operation.param_name) (Operation.inputs op)));
    test "outputs are out inout return" (fun () ->
        check Alcotest.(list string) "outputs" [ "b"; "c"; "r" ]
          (List.map (fun p -> p.Operation.param_name) (Operation.outputs op)));
    test "return type" (fun () ->
        check Alcotest.bool "float" true
          (Operation.return_type op = Some Datatype.D_float));
    test "direction round trip" (fun () ->
        List.iter
          (fun d ->
            check Alcotest.bool "dir" true
              (Operation.direction_of_string (Operation.direction_to_string d) = d))
          [ Operation.In; Operation.Out; Operation.Inout; Operation.Return ]);
  ]

let sequence_tests =
  let msg = Sequence.message ~from:"A" ~target:"B" in
  [
    test "prefix classification" (fun () ->
        check Alcotest.bool "send" true (Sequence.is_send (msg "SetValue"));
        check Alcotest.bool "recv" true (Sequence.is_receive (msg "GetValue"));
        check Alcotest.bool "io read" true (Sequence.is_io_read (msg "getValue"));
        check Alcotest.bool "io write" true (Sequence.is_io_write (msg "setValue"));
        check Alcotest.bool "not send" false (Sequence.is_send (msg "setValue"));
        check Alcotest.bool "not recv" false (Sequence.is_receive (msg "getValue")));
    test "transferred bytes sums args and result" (fun () ->
        let m =
          Sequence.message ~from:"A" ~target:"B" "f"
            ~args:[ Sequence.arg "x" Datatype.D_int; Sequence.arg "y" Datatype.D_float ]
            ~result:(Sequence.arg "r" Datatype.D_bool)
        in
        check Alcotest.int "bytes" 13 (Sequence.transferred_bytes m));
    test "lifelines in first-appearance order" (fun () ->
        let sd =
          Sequence.make "sd"
            [
              Sequence.message ~from:"B" ~target:"C" "f";
              Sequence.message ~from:"A" ~target:"B" "g";
            ]
        in
        check Alcotest.(list string) "order" [ "B"; "C"; "A" ] (Sequence.lifelines sd));
    test "messages_from filters by caller" (fun () ->
        let sd =
          Sequence.make "sd"
            [
              Sequence.message ~from:"A" ~target:"B" "f";
              Sequence.message ~from:"B" ~target:"A" "g";
              Sequence.message ~from:"A" ~target:"C" "h";
            ]
        in
        check Alcotest.int "two" 2 (List.length (Sequence.messages_from sd "A")));
  ]

let deployment_tests =
  let dep =
    Deployment.make ~bus:"amba" ~name:"d"
      ~nodes:[ Deployment.node "CPU1"; Deployment.node "CPU2" ]
      ~allocation:[ ("T1", "CPU1"); ("T2", "CPU1"); ("T3", "CPU2") ]
      ()
  in
  [
    test "node_of_thread" (fun () ->
        check Alcotest.(option string) "T3" (Some "CPU2") (Deployment.node_of_thread dep "T3"));
    test "threads_on" (fun () ->
        check Alcotest.(list string) "CPU1" [ "T1"; "T2" ] (Deployment.threads_on dep "CPU1"));
    test "node carries SAengine stereotype" (fun () ->
        let n = Deployment.node "x" in
        check Alcotest.bool "stereo" true
          (List.mem Stereotype.Sa_engine n.Deployment.node_stereotypes));
  ]

let sample_uml () =
  let b = Builder.create "sample" in
  Builder.thread b "T1";
  Builder.thread b "T2";
  Builder.platform b "Platform";
  Builder.io_device b "IO";
  Builder.passive_object b ~cls:"Worker" "w";
  Builder.cpu b "CPU1";
  Builder.allocate b ~thread:"T1" ~cpu:"CPU1";
  Builder.allocate b ~thread:"T2" ~cpu:"CPU1";
  let arg = Sequence.arg in
  Builder.call b ~from:"T1" ~target:"IO" "getIn" ~result:(arg "x" Datatype.D_float);
  Builder.call b ~from:"T1" ~target:"w" "work" ~args:[ arg "x" Datatype.D_float ]
    ~result:(arg "y" Datatype.D_float);
  Builder.call b ~from:"T1" ~target:"T2" "SetY" ~args:[ arg "y" Datatype.D_float ];
  Builder.call b ~from:"T2" ~target:"IO" "setOut" ~args:[ arg "y" Datatype.D_float ];
  Builder.finish b

let builder_tests =
  [
    test "threads discovered" (fun () ->
        check Alcotest.(list string) "threads" [ "T1"; "T2" ] (Model.threads (sample_uml ())));
    test "builder infers operations on callee classes" (fun () ->
        let m = sample_uml () in
        match Model.class_of_instance m "w" with
        | Some c -> check Alcotest.bool "work declared" true (Classifier.find_operation c "work" <> None)
        | None -> Alcotest.fail "class not found");
    test "duplicate object rejected" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        match Builder.thread b "T" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "allocation to unknown cpu rejected" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        match Builder.allocate b ~thread:"T" ~cpu:"CPU9" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "no deployment when no cpus declared" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        check Alcotest.bool "none" true (Model.deployment (Builder.finish b) = None));
    test "kind_of_instance" (fun () ->
        let m = sample_uml () in
        check Alcotest.bool "thread" true
          (Model.kind_of_instance m "T1" = Some Classifier.Thread);
        check Alcotest.bool "platform" true
          (Model.kind_of_instance m "Platform" = Some Classifier.Platform);
        check Alcotest.bool "io" true
          (Model.kind_of_instance m "IO" = Some Classifier.Io_device));
    test "stats count messages" (fun () ->
        let m = sample_uml () in
        check Alcotest.(option int) "msgs" (Some 4) (List.assoc_opt "messages" (Model.stats m)));
  ]

let validate_tests =
  let well_formed = sample_uml () in
  [
    test "well-formed model passes" (fun () ->
        check Alcotest.int "no issues" 0 (List.length (Validate.check well_formed)));
    test "unknown callee flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        let m = Builder.finish b in
        let m =
          {
            m with
            Model.sequences =
              [ Sequence.make "sd" [ Sequence.message ~from:"T" ~target:"ghost" "f" ] ];
          }
        in
        check Alcotest.bool "flagged" true (Validate.check m <> []));
    test "thread-to-thread without Set/Get flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T1";
        Builder.thread b "T2";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T1" ~cpu:"CPU";
        Builder.allocate b ~thread:"T2" ~cpu:"CPU";
        Builder.call b ~from:"T1" ~target:"T2" "compute";
        check Alcotest.bool "flagged" true (Validate.check (Builder.finish b) <> []));
    test "io call without get/set flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.io_device b "IO";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        Builder.call b ~from:"T" ~target:"IO" "read";
        check Alcotest.bool "flagged" true (Validate.check (Builder.finish b) <> []));
    test "unallocated thread flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T1";
        Builder.thread b "T2";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T1" ~cpu:"CPU";
        check Alcotest.bool "flagged" true (Validate.check (Builder.finish b) <> []));
    test "doubly allocated thread flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        check Alcotest.bool "flagged" true (Validate.check (Builder.finish b) <> []));
    test "never-produced token flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.passive_object b ~cls:"W" "w";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        Builder.call b ~from:"T" ~target:"w" "f"
          ~args:[ Sequence.arg "phantom" Datatype.D_int ];
        check Alcotest.bool "flagged" true (Validate.check (Builder.finish b) <> []));
    test "feedback token is allowed (order independent)" (fun () ->
        (* u consumed before it is produced later in the diagram. *)
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.platform b "P";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        let arg = Sequence.arg in
        Builder.call b ~from:"T" ~target:"P" "sub"
          ~args:[ arg "u" Datatype.D_float; arg "u" Datatype.D_float ]
          ~result:(arg "e" Datatype.D_float);
        Builder.call b ~from:"T" ~target:"P" "gain" ~args:[ arg "e" Datatype.D_float ]
          ~result:(arg "u" Datatype.D_float);
        check Alcotest.int "ok" 0 (List.length (Validate.check (Builder.finish b))));
    test "token not available in consuming thread flagged" (fun () ->
        (* T2 consumes a token only T1 can produce, with no Set/Get. *)
        let b = Builder.create "x" in
        Builder.thread b "T1";
        Builder.thread b "T2";
        Builder.passive_object b ~cls:"W" "w";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T1" ~cpu:"CPU";
        Builder.allocate b ~thread:"T2" ~cpu:"CPU";
        let arg = Sequence.arg in
        Builder.call b ~from:"T1" ~target:"w" "make" ~result:(arg "t" Datatype.D_float);
        Builder.call b ~from:"T2" ~target:"w" "use" ~args:[ arg "t" Datatype.D_float ];
        check Alcotest.bool "flagged" true
          (List.exists
             (fun (i : Validate.issue) ->
               Astring_contains.contains i.Validate.what "not available in this thread")
             (Validate.check (Builder.finish b))));
    test "argument count mismatch flagged" (fun () ->
        let b = Builder.create "x" in
        Builder.thread b "T";
        Builder.cpu b "CPU";
        Builder.allocate b ~thread:"T" ~cpu:"CPU";
        Builder.passive_object b "w" ~cls:"W"
          ~operations:
            [
              Operation.make "f"
                ~params:
                  [
                    Operation.param "a" Datatype.D_int;
                    Operation.param "b" Datatype.D_int;
                  ];
            ];
        let m = Builder.finish b in
        let m =
          {
            m with
            Model.sequences =
              [
                Sequence.make "sd"
                  [
                    Sequence.message ~from:"T" ~target:"w" "f"
                      ~args:[ Sequence.arg "a" Datatype.D_int ];
                  ];
              ];
          }
        in
        check Alcotest.bool "flagged" true
          (List.exists
             (fun (i : Validate.issue) ->
               String.length i.Validate.what >= 8
               && String.sub i.Validate.what 0 8 = "argument")
             (Validate.check m)));
  ]

let statechart_sample =
  Statechart.make "door"
    [
      Statechart.state ~kind:Statechart.Initial "init";
      Statechart.state ~entry:"lock" "closed";
      Statechart.state "open_";
    ]
    [
      Statechart.transition ~source:"init" ~target:"closed" ();
      Statechart.transition ~trigger:"open" ~source:"closed" ~target:"open_" ();
      Statechart.transition ~trigger:"close" ~source:"open_" ~target:"closed" ();
    ]

(* The bytes the serving cache keys a parsed model by. *)
let marshalled (m : Model.t) = Marshal.to_string m [ Marshal.No_sharing ]
let reread m = marshalled (Xmi.of_string (Xmi.to_string m))

let xmi_tests =
  [
    test "round-trip is a fixpoint" (fun () ->
        let m = sample_uml () in
        let m = { m with Model.statecharts = [ statechart_sample ] } in
        let once = Xmi.to_string (Xmi.of_string (Xmi.to_string m)) in
        let twice = Xmi.to_string (Xmi.of_string once) in
        check Alcotest.string "fixpoint" once twice);
    test "round-trip preserves structure" (fun () ->
        let m = sample_uml () in
        let m' = Xmi.of_string (Xmi.to_string m) in
        check Alcotest.(list (pair string int)) "stats" (Model.stats m) (Model.stats m'));
    test "round-trip preserves deployment" (fun () ->
        let m = sample_uml () in
        let m' = Xmi.of_string (Xmi.to_string m) in
        match Model.deployment m' with
        | Some d ->
            check Alcotest.(option string) "alloc" (Some "CPU1")
              (Deployment.node_of_thread d "T2")
        | None -> Alcotest.fail "deployment lost");
    test "round-trip preserves node stereotypes, even stripped ones" (fun () ->
        let strip (n : Deployment.node) = { n with Deployment.node_stereotypes = [] } in
        let m = sample_uml () in
        let m =
          {
            m with
            Model.deployments =
              List.map
                (fun d ->
                  { d with Deployment.dep_nodes = List.map strip d.Deployment.dep_nodes })
                m.Model.deployments;
          }
        in
        match Model.deployment (Xmi.of_string (Xmi.to_string m)) with
        | Some d ->
            List.iter
              (fun (n : Deployment.node) ->
                check Alcotest.bool "stays stripped" true (n.Deployment.node_stereotypes = []))
              d.Deployment.dep_nodes
        | None -> Alcotest.fail "deployment lost");
    test "round-trip preserves statechart shape" (fun () ->
        let m = Model.make ~statecharts:[ statechart_sample ] "sc" in
        let m' = Xmi.of_string (Xmi.to_string m) in
        match m'.Model.statecharts with
        | [ sc ] ->
            check Alcotest.int "states" 3 (List.length (Statechart.all_states sc));
            check Alcotest.int "transitions" 3 (List.length sc.Statechart.sc_transitions);
            check Alcotest.(option string) "entry preserved" (Some "lock")
              (Option.bind (Statechart.find_state sc "closed") (fun s ->
                   s.Statechart.st_entry))
        | _ -> Alcotest.fail "statechart lost");
    test "bad root rejected" (fun () ->
        match Xmi.of_string "<wrong name=\"x\"/>" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "validation survives round-trip" (fun () ->
        let m = sample_uml () in
        let m' = Xmi.of_string (Xmi.to_string m) in
        check Alcotest.int "still well-formed" 0 (List.length (Validate.check m')));
    test "bundled models read back to the same bytes" (fun () ->
        let module Cs = Umlfront_casestudies in
        List.iter
          (fun m -> check Alcotest.string m.Model.model_name (marshalled m) (reread m))
          [
            { (sample_uml ()) with Model.statecharts = [ statechart_sample ] };
            Cs.Didactic.model ();
            Cs.Crane_system.model ();
            Cs.Synthetic_system.model ();
            Cs.Mjpeg_system.model ();
            Cs.Elevator_system.model ();
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random models read back to the same bytes" ~count:100
         (QCheck.make
            ~print:(fun (shape, seed, size) ->
              Printf.sprintf "shape %d seed %d size %d" shape seed size)
            QCheck.Gen.(triple (0 -- 4) (int_bound 99_999) (2 -- 40)))
         (fun (shape, seed, size) ->
           let module R = Umlfront_casestudies.Random_models in
           let m =
             match shape with
             | 0 -> R.pipeline ~seed ~threads:size ~extra_edges:(size / 2)
             | 1 -> R.cyclic ~seed ~stages:size
             | 2 -> R.chatty ~seed ~threads:size ~width:3
             | 3 -> R.multi_cpu ~seed ~threads:size ~cpus:3 ~extra_edges:size
             | _ -> R.wide ~seed ~branches:(1 + (size / 4)) ~depth:3
           in
           marshalled m = reread m));
  ]

let statechart_tests =
  [
    test "all_states pre-order" (fun () ->
        let sc =
          Statechart.make "h"
            [
              Statechart.state "a"
                ~children:[ Statechart.state "a1"; Statechart.state "a2" ];
              Statechart.state "b";
            ]
            []
        in
        check Alcotest.(list string) "order" [ "a"; "a1"; "a2"; "b" ]
          (List.map (fun s -> s.Statechart.st_name) (Statechart.all_states sc)));
    test "children imply composite kind" (fun () ->
        let s = Statechart.state "x" ~children:[ Statechart.state "y" ] in
        check Alcotest.bool "composite" true (s.Statechart.st_kind = Statechart.Composite));
    test "events sorted distinct" (fun () ->
        check Alcotest.(list string) "events" [ "close"; "open" ]
          (Statechart.events statechart_sample));
    test "initial_state found" (fun () ->
        check Alcotest.(option string) "init" (Some "init")
          (Option.map (fun s -> s.Statechart.st_name)
             (Statechart.initial_state statechart_sample)));
  ]

let suite =
  [
    ("uml:datatype", datatype_tests);
    ("uml:operation", operation_tests);
    ("uml:sequence", sequence_tests);
    ("uml:deployment", deployment_tests);
    ("uml:builder", builder_tests);
    ("uml:validate", validate_tests);
    ("uml:xmi", xmi_tests);
    ("uml:statechart", statechart_tests);
  ]
