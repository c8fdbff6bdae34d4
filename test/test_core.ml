module U = Umlfront_uml
module Core = Umlfront_core
module B = Umlfront_simulink.Block
module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam
module Parser = Umlfront_simulink.Mdl_parser
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module G = Umlfront_taskgraph.Graph
module Trace = Umlfront_metamodel.Trace

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let didactic () = Umlfront_casestudies.Didactic.model ()

let deployment_allocation uml =
  match Core.Allocation.from_deployment uml with
  | Some a -> a
  | None -> Alcotest.fail "expected a deployment"

let find_at root path name =
  let rec descend sys = function
    | [] -> S.find_block sys name
    | p :: rest -> (
        match (S.find_block_exn sys p).S.blk_system with
        | Some inner -> descend inner rest
        | None -> None)
  in
  descend root path

(* A message from an instance nobody declared: the first issue
   [Validate.check] reports. *)
let with_unknown_caller (uml : U.Model.t) =
  let sd = List.hd uml.U.Model.sequences in
  let m = List.hd sd.U.Sequence.sd_messages in
  let stray = { m with U.Sequence.msg_from = "ghost" } in
  {
    uml with
    U.Model.sequences =
      { sd with U.Sequence.sd_messages = stray :: sd.U.Sequence.sd_messages }
      :: List.tl uml.U.Model.sequences;
  }

let mapping_tests =
  [
    test "thread missing from allocation rejected" (fun () ->
        match Core.Mapping.run ~allocation:[ ("T1", "CPU1") ] (didactic ()) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "CPU-SS per processor, Thread-SS per thread" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let cpus = Caam.cpus r.Core.Mapping.model in
        check Alcotest.(list string) "cpus" [ "CPU1"; "CPU2" ]
          (List.map (fun b -> b.S.blk_name) cpus);
        check Alcotest.(list (pair string string)) "threads"
          [ ("T1", "CPU1"); ("T2", "CPU1"); ("T3", "CPU2") ]
          (Caam.thread_names r.Core.Mapping.model));
    test "Platform call becomes a Product block" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        match find_at r.Core.Mapping.model.Model.root [ "CPU1"; "T1" ] "mult" with
        | Some blk -> check Alcotest.bool "product" true (blk.S.blk_type = B.Product)
        | None -> Alcotest.fail "mult not found");
    test "passive call becomes an S-Function" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        match find_at r.Core.Mapping.model.Model.root [ "CPU1"; "T1" ] "calc" with
        | Some blk ->
            check Alcotest.bool "sfun" true (blk.S.blk_type = B.S_function);
            check Alcotest.(option string) "fn" (Some "calc")
              (S.param_string blk "FunctionName")
        | None -> Alcotest.fail "calc not found");
    test "unknown Platform method falls back to S-Function" (fun () ->
        let b = U.Builder.create "x" in
        U.Builder.thread b "T";
        U.Builder.platform b "P";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
        U.Builder.call b ~from:"T" ~target:"P" "exotic"
          ~result:(U.Sequence.arg "r" U.Datatype.D_float);
        let uml = U.Builder.finish b in
        let r = Core.Mapping.run ~allocation:[ ("T", "CPU") ] uml in
        match find_at r.Core.Mapping.model.Model.root [ "CPU"; "T" ] "exotic" with
        | Some blk -> check Alcotest.bool "sfun" true (blk.S.blk_type = B.S_function)
        | None -> Alcotest.fail "exotic not found");
    test "IO calls become system ports" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let root = r.Core.Mapping.model.Model.root in
        check Alcotest.bool "Sensor in" true
          (match S.find_block root "Sensor" with
          | Some b -> b.S.blk_type = B.Inport
          | None -> false);
        check Alcotest.bool "Actuator out" true
          (match S.find_block root "Actuator" with
          | Some b -> b.S.blk_type = B.Outport
          | None -> false));
    test "token reuse creates a data link" (fun () ->
        (* r1 feeds both dec and mult inside T1 *)
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let rec t1_sys sys = function
          | [] -> sys
          | p :: rest -> t1_sys (Option.get (S.find_block_exn sys p).S.blk_system) rest
        in
        let t1 = t1_sys r.Core.Mapping.model.Model.root [ "CPU1"; "T1" ] in
        check Alcotest.int "calc fans out" 2 (List.length (S.consumers t1 "calc" 1)));
    test "cross-thread links counted" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        check Alcotest.int "two" 2 r.Core.Mapping.cross_links);
    test "trace records thread and message rules" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        check Alcotest.(list string) "T1 target" [ "CPU1/T1" ]
          (Trace.targets_of ~rule:"thread_to_thread_ss" r.Core.Mapping.trace "T1");
        check Alcotest.bool "message rule used" true
          (List.mem "message_to_block" (Trace.rules r.Core.Mapping.trace)));
    test "mapped model validates structurally" (fun () ->
        let uml = didactic () in
        let r = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        check Alcotest.int "clean" 0 (List.length (Model.validate r.Core.Mapping.model)));
  ]

let out_param_tests =
  [
    test "out parameters become extra output ports" (fun () ->
        (* split produces a result q and an out parameter r; both feed
           separate consumers. *)
        let b = U.Builder.create "outs" in
        U.Builder.thread b "T";
        U.Builder.io_device b "IO";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
        let arg = U.Sequence.arg in
        let f = U.Datatype.D_float in
        U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "x" f);
        U.Builder.call b ~from:"T" ~target:"w" "split" ~args:[ arg "x" f ]
          ~result:(arg "q" f) ~outs:[ arg "r" f ];
        U.Builder.call b ~from:"T" ~target:"w" "useQ" ~args:[ arg "q" f ]
          ~result:(arg "a" f);
        U.Builder.call b ~from:"T" ~target:"w" "useR" ~args:[ arg "r" f ]
          ~result:(arg "bb" f);
        U.Builder.call b ~from:"T" ~target:"w" "join2"
          ~args:[ arg "a" f; arg "bb" f ]
          ~result:(arg "y" f);
        U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg "y" f ];
        let uml = U.Builder.finish b in
        check Alcotest.int "well-formed" 0 (List.length (U.Validate.check uml));
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        (match find_at out.Core.Flow.caam.Model.root [ "CPU"; "T" ] "split" with
        | Some blk ->
            check Alcotest.(option int) "two outputs" (Some 2) (S.param_int blk "Outputs")
        | None -> Alcotest.fail "split block missing");
        (* execution distinguishes the two ports (the default behaviour
           offsets port 2 by 0.1) *)
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let split_edges =
          List.filter
            (fun (e : Sdf.edge) -> e.Sdf.edge_src = "CPU/T/split")
            sdf.Sdf.edges
        in
        check Alcotest.(list int) "ports 1 and 2" [ 1; 2 ]
          (List.sort compare (List.map (fun (e : Sdf.edge) -> e.Sdf.edge_src_port) split_edges));
        let outcome = Exec.run ~rounds:2 sdf in
        check Alcotest.int "runs" 2 outcome.Exec.rounds);
    test "outs survive XMI and capture round-trips" (fun () ->
        let b = U.Builder.create "outs2" in
        U.Builder.thread b "T";
        U.Builder.io_device b "IO";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
        let arg = U.Sequence.arg in
        let f = U.Datatype.D_float in
        U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "x" f);
        U.Builder.call b ~from:"T" ~target:"w" "split" ~args:[ arg "x" f ]
          ~result:(arg "q" f) ~outs:[ arg "r" f ];
        U.Builder.call b ~from:"T" ~target:"w" "sum2" ~args:[ arg "q" f; arg "r" f ]
          ~result:(arg "y" f);
        U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg "y" f ];
        let uml = U.Builder.finish b in
        (* XMI *)
        let uml' = U.Xmi.of_string (U.Xmi.to_string uml) in
        let msg_with_outs =
          List.concat_map (fun (sd : U.Sequence.t) -> sd.U.Sequence.sd_messages)
            uml'.U.Model.sequences
          |> List.find (fun (m : U.Sequence.message) -> m.U.Sequence.msg_outs <> [])
        in
        check Alcotest.int "one out kept" 1 (List.length msg_with_outs.U.Sequence.msg_outs);
        (* behavioural capture round-trip *)
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        let recovered = Core.Capture.run out.Core.Flow.caam in
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        let t1 = (Exec.run ~rounds:4 (Sdf.of_model out.Core.Flow.caam)).Exec.traces in
        let t2 = (Exec.run ~rounds:4 (Sdf.of_model out2.Core.Flow.caam)).Exec.traces in
        List.iter2
          (fun (p1, s1) (p2, s2) ->
            check Alcotest.string "port" p1 p2;
            check Alcotest.(array (float 1e-9)) p1 s1 s2)
          t1 t2);
    test "boundary-looking operation names do not collide with ports" (fun () ->
        let b = U.Builder.create "collide" in
        U.Builder.thread b "T1";
        U.Builder.thread b "T2";
        U.Builder.io_device b "IO";
        U.Builder.passive_object b ~cls:"W" "w";
        U.Builder.cpu b "CPU";
        U.Builder.allocate b ~thread:"T1" ~cpu:"CPU";
        U.Builder.allocate b ~thread:"T2" ~cpu:"CPU";
        let arg = U.Sequence.arg in
        let f = U.Datatype.D_float in
        (* T1 receives a token (creating boundary port In1) and calls an
           operation literally named "In1". *)
        U.Builder.call b ~from:"T2" ~target:"IO" "getIn" ~result:(arg "x" f);
        U.Builder.call b ~from:"T2" ~target:"T1" "SetX" ~args:[ arg "x" f ];
        U.Builder.call b ~from:"T1" ~target:"w" "In1" ~args:[ arg "x" f ]
          ~result:(arg "y" f);
        U.Builder.call b ~from:"T1" ~target:"IO" "setOut" ~args:[ arg "y" f ];
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (U.Builder.finish b) in
        check Alcotest.int "structural" 0 (List.length (Model.validate out.Core.Flow.caam));
        check Alcotest.bool "renamed block present" true
          (find_at out.Core.Flow.caam.Model.root [ "CPU"; "T1" ] "b_In1" <> None));
  ]

let channel_tests =
  [
    test "intra gets SWFIFO, inter gets GFIFO" (fun () ->
        let uml = didactic () in
        let mapped = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let r = Core.Channel_inference.run mapped.Core.Mapping.model in
        check Alcotest.int "intra" 1 r.Core.Channel_inference.intra_channels;
        check Alcotest.int "inter" 1 r.Core.Channel_inference.inter_channels;
        List.iter
          (fun (path, ch) ->
            let expected =
              match Caam.classify_channel ~path with
              | Caam.Inter_cpu -> "GFIFO"
              | Caam.Intra_cpu -> "SWFIFO"
            in
            check Alcotest.(option string) "protocol" (Some expected) (Caam.protocol ch))
          (Caam.channels r.Core.Channel_inference.model));
    test "channelized CAAM passes the CAAM checker" (fun () ->
        let uml = didactic () in
        let mapped = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let r = Core.Channel_inference.run mapped.Core.Mapping.model in
        check Alcotest.(list string) "clean" [] (Caam.check r.Core.Channel_inference.model));
    test "idempotent on an already channelized model" (fun () ->
        let uml = didactic () in
        let mapped = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let once = Core.Channel_inference.run mapped.Core.Mapping.model in
        let twice = Core.Channel_inference.run once.Core.Channel_inference.model in
        check Alcotest.int "no new intra" 0 twice.Core.Channel_inference.intra_channels;
        check Alcotest.int "no new inter" 0 twice.Core.Channel_inference.inter_channels);
    test "channels take the first chN names their system leaves free" (fun () ->
        let uml =
          Umlfront_casestudies.Random_models.multi_cpu ~seed:3 ~threads:8 ~cpus:2
            ~extra_edges:4
        in
        let mapped = Core.Mapping.run ~allocation:(deployment_allocation uml) uml in
        let model = mapped.Core.Mapping.model in
        let squat sys = List.fold_left (fun sys n -> S.add_block sys B.Constant n) sys in
        let root =
          S.map_systems
            (fun path sys ->
              match path with
              | [] -> squat sys [ "ch1"; "ch3" ]
              | [ _ ] -> squat sys [ "ch2" ]
              | _ -> sys)
            model.Model.root
        in
        let r = Core.Channel_inference.run { model with Model.root } in
        check Alcotest.bool "both kinds spliced" true
          (r.Core.Channel_inference.inter_channels > 0
          && r.Core.Channel_inference.intra_channels > 0);
        S.iter_systems
          (fun path sys ->
            let channels =
              List.filter_map
                (fun (b : S.block) ->
                  if b.S.blk_type = B.Channel then Some b.S.blk_name else None)
                (S.blocks sys)
            in
            let free =
              List.filter
                (fun n -> S.find_block sys n = None || List.mem n channels)
                (List.init 64 (fun i -> Printf.sprintf "ch%d" (i + 1)))
            in
            check
              Alcotest.(list string)
              ("/" ^ String.concat "/" path)
              (List.filteri (fun i _ -> i < List.length channels) free)
              channels)
          r.Core.Channel_inference.model.Model.root);
  ]

let crane () = Umlfront_casestudies.Crane_system.model ()

let loop_tests =
  [
    test "crane gets exactly one temporal barrier" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (crane ()) in
        check Alcotest.int "one delay" 1 out.Core.Flow.delays_inserted);
    test "delay lands inside Tcontrol" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (crane ()) in
        check Alcotest.bool "in Tcontrol" true
          (find_at out.Core.Flow.caam.Model.root [ "CPU1"; "Tcontrol" ] "Delay1" <> None));
    test "broken cycle names the loop blocks" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (crane ()) in
        match out.Core.Flow.broken_cycles with
        | [ cycle ] ->
            check Alcotest.bool "sub on cycle" true
              (List.mem "CPU1/Tcontrol/sub" cycle)
        | _ -> Alcotest.fail "expected one cycle");
    test "result executes deadlock-free" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (crane ()) in
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let outcome = Exec.run ~rounds:4 sdf in
        check Alcotest.int "rounds" 4 outcome.Exec.rounds);
    test "loop breaker is idempotent" (fun () ->
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (crane ()) in
        let again = Core.Loop_breaker.run out.Core.Flow.caam in
        check Alcotest.int "nothing to do" 0 again.Core.Loop_breaker.delays_inserted);
    test "acyclic model untouched" (fun () ->
        let uml = didactic () in
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment uml in
        check Alcotest.int "no delays" 0 out.Core.Flow.delays_inserted);
  ]

let allocation_tests =
  [
    test "task graph weights are transferred bytes" (fun () ->
        let b = U.Builder.create "x" in
        U.Builder.thread b "A";
        U.Builder.thread b "B";
        U.Builder.passive_object b ~cls:"W" "w";
        let arg = U.Sequence.arg in
        U.Builder.call b ~from:"A" ~target:"w" "make"
          ~result:(arg "t" (U.Datatype.D_named ("blob", 100)));
        U.Builder.call b ~from:"A" ~target:"B" "SetT"
          ~args:[ arg "t" (U.Datatype.D_named ("blob", 100)) ];
        let g = Core.Allocation.task_graph (U.Builder.finish b) in
        check (Alcotest.float 1e-9) "100 bytes" 100.0 (G.edge_weight g "A" "B"));
    test "Get reverses the data direction" (fun () ->
        let b = U.Builder.create "x" in
        U.Builder.thread b "A";
        U.Builder.thread b "B";
        U.Builder.passive_object b ~cls:"W" "w";
        let arg = U.Sequence.arg in
        U.Builder.call b ~from:"B" ~target:"w" "make" ~result:(arg "t" U.Datatype.D_int);
        U.Builder.call b ~from:"A" ~target:"B" "GetT" ~result:(arg "t" U.Datatype.D_int);
        let g = Core.Allocation.task_graph (U.Builder.finish b) in
        check Alcotest.bool "B to A" true (G.mem_edge g "B" "A");
        check Alcotest.bool "not A to B" false (G.mem_edge g "A" "B"));
    test "infer covers every thread exactly once" (fun () ->
        let uml = didactic () in
        let alloc = Core.Allocation.infer uml in
        check Alcotest.(list string) "threads" [ "T1"; "T2"; "T3" ]
          (List.map fst alloc));
    test "bounded strategy caps CPUs" (fun () ->
        let uml = didactic () in
        let alloc = Core.Allocation.infer ~strategy:(Core.Allocation.Bounded 1) uml in
        check Alcotest.int "one cpu" 1
          (List.length (List.sort_uniq compare (List.map snd alloc))));
    test "cyclic thread communication tolerated" (fun () ->
        (* A sends to B, B sends back to A: cyclic task graph. *)
        let b = U.Builder.create "x" in
        U.Builder.thread b "A";
        U.Builder.thread b "B";
        U.Builder.passive_object b ~cls:"W" "w";
        let arg = U.Sequence.arg in
        let f = U.Datatype.D_float in
        U.Builder.call b ~from:"A" ~target:"w" "fa" ~args:[ arg "tb" f ]
          ~result:(arg "ta" f);
        U.Builder.call b ~from:"A" ~target:"B" "SetTa" ~args:[ arg "ta" f ];
        U.Builder.call b ~from:"B" ~target:"w" "fb" ~args:[ arg "ta" f ]
          ~result:(arg "tb" f);
        U.Builder.call b ~from:"B" ~target:"A" "SetTb" ~args:[ arg "tb" f ];
        let alloc = Core.Allocation.infer (U.Builder.finish b) in
        check Alcotest.int "both placed" 2 (List.length alloc));
  ]

let flow_tests =
  [
    test "prefer-deployment uses the diagram" (fun () ->
        let out = Core.Flow.run (didactic ()) in
        check Alcotest.(option string) "T3 on CPU2" (Some "CPU2")
          (List.assoc_opt "T3" out.Core.Flow.allocation));
    test "use-deployment without diagram rejected" (fun () ->
        let b = U.Builder.create "x" in
        U.Builder.thread b "T";
        let uml = U.Builder.finish b in
        match Core.Flow.run ~strategy:Core.Flow.Use_deployment uml with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "mdl output parses back with identical stats" (fun () ->
        let out = Core.Flow.run (didactic ()) in
        let reparsed = Parser.parse_string out.Core.Flow.mdl in
        check Alcotest.(list (pair string int)) "stats" (Model.stats out.Core.Flow.caam)
          (Model.stats reparsed));
    test "final CAAM passes both validators" (fun () ->
        let out = Core.Flow.run (didactic ()) in
        check Alcotest.int "structural" 0 (List.length (Model.validate out.Core.Flow.caam));
        check Alcotest.(list string) "caam" [] (Caam.check out.Core.Flow.caam));
    test "statecharts ride along" (fun () ->
        let uml = didactic () in
        let chart =
          U.Statechart.make "mode"
            [ U.Statechart.state ~kind:U.Statechart.Initial "i"; U.Statechart.state "run" ]
            [ U.Statechart.transition ~source:"i" ~target:"run" () ]
        in
        let uml = { uml with U.Model.statecharts = [ chart ] } in
        let out = Core.Flow.run uml in
        check Alcotest.(list string) "fsm names" [ "mode" ] (List.map fst out.Core.Flow.fsms));
    test "report mentions every thread" (fun () ->
        let out = Core.Flow.run (didactic ()) in
        let text = Core.Report.flow_summary out in
        List.iter
          (fun th -> check Alcotest.bool th true (Astring_contains.contains text th))
          [ "T1"; "T2"; "T3" ]);
    test "a model with issues fails in the map phase, after allocation" (fun () ->
        let bad = with_unknown_caller (didactic ()) in
        let first = List.hd (U.Validate.check bad) in
        let ctx = Umlfront_obs.Context.create () in
        (match Core.Flow.run ~ctx bad with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument m ->
            check Alcotest.string "the first issue"
              (Printf.sprintf "UML model not well-formed: %s: %s" first.U.Validate.where
                 first.U.Validate.what)
              m);
        let phases =
          Umlfront_obs.Context.with_current ctx (fun () -> Umlfront_obs.Journal.entries ())
          |> List.map (fun e -> e.Umlfront_obs.Journal.j_kind)
        in
        check
          Alcotest.(list string)
          "phases started, the issue reported"
          [ "flow.run"; "flow.validate"; "flow.validate.issue"; "flow.allocate"; "flow.map" ]
          phases);
    (* Each system is built once, so the words synthesis allocates grow
       about linearly with the threads; a builder that copies a system
       per block, line or channel makes them grow about as the square,
       past this bound. *)
    test "synthesis at 100 threads allocates at most 2.4x what 50 do" (fun () ->
        let minor_words uml =
          let before = Gc.minor_words () in
          ignore (Core.Flow.synthesize uml);
          Gc.minor_words () -. before
        in
        List.iter
          (fun (shape, gen) ->
            let ratio = minor_words (gen 100) /. minor_words (gen 50) in
            check Alcotest.bool (Printf.sprintf "%s: %.2fx" shape ratio) true (ratio <= 2.4))
          [
            ( "pipeline",
              fun threads ->
                Umlfront_casestudies.Random_models.pipeline ~seed:1 ~threads
                  ~extra_edges:(threads / 2) );
            ( "chatty",
              fun threads ->
                Umlfront_casestudies.Random_models.chatty ~seed:1 ~threads ~width:2 );
          ]);
    test "random pipelines name any number of threads uniquely in ASCII" (fun () ->
        let uml =
          Umlfront_casestudies.Random_models.pipeline ~seed:1 ~threads:300 ~extra_edges:0
        in
        let threads = U.Model.threads uml in
        check Alcotest.int "threads" 300 (List.length threads);
        check Alcotest.int "unique" 300 (List.length (List.sort_uniq compare threads));
        check Alcotest.(list string) "the first names" [ "TA"; "TB"; "TZ"; "T26" ]
          (List.map (List.nth threads) [ 0; 1; 25; 26 ]);
        List.iter
          (fun th ->
            check Alcotest.bool th true
              (String.for_all
                 (function 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
                 th))
          threads);
  ]

let uml2fsm_tests =
  [
    test "generated artifacts are non-empty" (fun () ->
        let chart =
          U.Statechart.make "blinker"
            [
              U.Statechart.state ~kind:U.Statechart.Initial "i";
              U.Statechart.state "on_";
              U.Statechart.state "off_";
            ]
            [
              U.Statechart.transition ~source:"i" ~target:"off_" ();
              U.Statechart.transition ~trigger:"tick" ~effect:"light_on" ~source:"off_"
                ~target:"on_" ();
              U.Statechart.transition ~trigger:"tick" ~effect:"light_off" ~source:"on_"
                ~target:"off_" ();
            ]
        in
        let g = Core.Uml2fsm.run_one chart in
        check Alcotest.bool "header" true (String.length g.Core.Uml2fsm.c_header > 0);
        check Alcotest.bool "source" true (String.length g.Core.Uml2fsm.c_source > 0);
        check Alcotest.bool "dot" true (String.length g.Core.Uml2fsm.dot > 0);
        check Alcotest.int "2 states" 2 (List.length g.Core.Uml2fsm.minimized.Umlfront_fsm.Fsm.states));
  ]

let suite =
  [
    ("core:mapping", mapping_tests);
    ("core:out_params", out_param_tests);
    ("core:channel_inference", channel_tests);
    ("core:loop_breaker", loop_tests);
    ("core:allocation", allocation_tests);
    ("core:flow", flow_tests);
    ("core:uml2fsm", uml2fsm_tests);
  ]
