module B = Umlfront_simulink.Block
module S = Umlfront_simulink.System
module Model = Umlfront_simulink.Model
module Library = Umlfront_simulink.Library
module Caam = Umlfront_simulink.Caam
module Writer = Umlfront_simulink.Mdl_writer
module Parser = Umlfront_simulink.Mdl_parser

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let block_tests =
  [
    test "block type round trip" (fun () ->
        List.iter
          (fun t -> check Alcotest.bool (B.to_string t) true (B.of_string (B.to_string t) = t))
          [
            B.Inport; B.Outport; B.Subsystem; B.S_function; B.Product; B.Sum; B.Gain;
            B.Constant; B.Unit_delay; B.Mux; B.Demux; B.Saturation; B.Switch;
            B.Terminator; B.Ground; B.Channel;
          ]);
    test "unknown block type rejected" (fun () ->
        match B.of_string "FluxCapacitor" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "default ports sensible" (fun () ->
        check Alcotest.(pair int int) "product" (2, 1) (B.default_ports B.Product);
        check Alcotest.(pair int int) "inport" (0, 1) (B.default_ports B.Inport);
        check Alcotest.(pair int int) "switch" (3, 1) (B.default_ports B.Switch));
  ]

(* A two-level model used by several suites: In -> sub(gain) -> Out. *)
let two_level () =
  let inner = S.empty "sub" in
  let inner = S.add_block ~params:[ ("Port", B.P_int 1) ] inner B.Inport "In1" in
  let inner = S.add_block ~params:[ ("Gain", B.P_float 2.0) ] inner B.Gain "g" in
  let inner = S.add_block ~params:[ ("Port", B.P_int 1) ] inner B.Outport "Out1" in
  let inner =
    S.add_line inner ~src:{ S.block = "In1"; S.port = 1 } ~dst:{ S.block = "g"; S.port = 1 }
  in
  let inner =
    S.add_line inner ~src:{ S.block = "g"; S.port = 1 } ~dst:{ S.block = "Out1"; S.port = 1 }
  in
  let root = S.empty "top" in
  let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Inport "src" in
  let root = S.add_block ~system:inner root B.Subsystem "sub" in
  let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "dst" in
  let root =
    S.add_line root ~src:{ S.block = "src"; S.port = 1 } ~dst:{ S.block = "sub"; S.port = 1 }
  in
  let root =
    S.add_line root ~src:{ S.block = "sub"; S.port = 1 } ~dst:{ S.block = "dst"; S.port = 1 }
  in
  Model.make ~name:"two_level" root

let system_tests =
  [
    test "duplicate block name rejected" (fun () ->
        let sys = S.add_block (S.empty "s") B.Gain "g" in
        match S.add_block sys B.Sum "g" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "system payload only for subsystems" (fun () ->
        match S.add_block ~system:(S.empty "x") (S.empty "s") B.Gain "g" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "line to unknown block rejected" (fun () ->
        let sys = S.add_block (S.empty "s") B.Gain "g" in
        match
          S.add_line sys ~src:{ S.block = "g"; S.port = 1 } ~dst:{ S.block = "h"; S.port = 1 }
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "double driver rejected" (fun () ->
        let sys = S.add_block (S.empty "s") B.Constant "c1" in
        let sys = S.add_block sys B.Constant "c2" in
        let sys = S.add_block sys B.Gain "g" in
        let sys =
          S.add_line sys ~src:{ S.block = "c1"; S.port = 1 } ~dst:{ S.block = "g"; S.port = 1 }
        in
        match
          S.add_line sys ~src:{ S.block = "c2"; S.port = 1 } ~dst:{ S.block = "g"; S.port = 1 }
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "subsystem ports derived from children" (fun () ->
        let m = two_level () in
        let sub = S.find_block_exn m.Model.root "sub" in
        check Alcotest.(pair int int) "ports" (1, 1) (S.port_counts sub));
    test "Inputs parameter widens blocks" (fun () ->
        let sys = S.add_block ~params:[ ("Inputs", B.P_int 5) ] (S.empty "s") B.Product "p" in
        check Alcotest.(pair int int) "ports" (5, 1)
          (S.port_counts (S.find_block_exn sys "p")));
    test "drivers and consumers" (fun () ->
        let m = two_level () in
        check Alcotest.int "sub drivers" 1 (List.length (S.drivers m.Model.root "sub"));
        check Alcotest.int "src consumers" 1
          (List.length (S.consumers m.Model.root "src" 1)));
    test "total counts recurse" (fun () ->
        let m = two_level () in
        check Alcotest.int "blocks" 6 (S.total_blocks m.Model.root);
        check Alcotest.int "lines" 4 (S.total_lines m.Model.root));
    test "validate accepts the sample" (fun () ->
        check Alcotest.int "clean" 0 (List.length (Model.validate (two_level ()))));
    test "validate flags port out of range" (fun () ->
        let sys = S.add_block (S.empty "s") B.Gain "g" in
        let sys = S.add_block sys B.Gain "h" in
        let sys =
          S.add_line sys ~src:{ S.block = "g"; S.port = 7 } ~dst:{ S.block = "h"; S.port = 1 }
        in
        check Alcotest.bool "flagged" true (S.validate sys <> []));
    test "validate flags non-contiguous boundary ports" (fun () ->
        let sys = S.add_block ~params:[ ("Port", B.P_int 2) ] (S.empty "s") B.Inport "In2" in
        check Alcotest.bool "flagged" true (S.validate sys <> []));
    test "map_systems rebuilds bottom-up" (fun () ->
        let m = two_level () in
        let seen = ref [] in
        let _ =
          S.map_systems
            (fun path sys ->
              seen := String.concat "/" path :: !seen;
              sys)
            m.Model.root
        in
        (* children visited before parents *)
        check Alcotest.(list string) "order" [ ""; "sub" ] !seen);
    test "set_param replaces" (fun () ->
        let sys = S.add_block ~params:[ ("Gain", B.P_float 1.0) ] (S.empty "s") B.Gain "g" in
        let sys = S.set_param sys "g" "Gain" (B.P_float 3.0) in
        check Alcotest.bool "updated" true
          (S.param (S.find_block_exn sys "g") "Gain" = Some (B.P_float 3.0)));
    (* Random blocks and lines over a few names, with the defects the
       sequence rejects: a repeated name, a system on a non-subsystem, a
       line to a missing block, a port driven twice. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"make builds what add_block and add_line build, or fails alike" ~count:500
         (QCheck.make
            ~print:(fun (blocks, lines) ->
              Printf.sprintf "blocks %s; lines %s"
                (String.concat ","
                   (List.map
                      (fun (n, t, nested) -> Printf.sprintf "%s:%d:%b" n t nested)
                      blocks))
                (String.concat ","
                   (List.map (fun (a, p, b, q) -> Printf.sprintf "%s/%d->%s/%d" a p b q) lines)))
            QCheck.Gen.(
              let name = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
              pair
                (list_size (0 -- 5) (triple name (0 -- 3) bool))
                (list_size (0 -- 6) (quad name (1 -- 2) name (1 -- 2)))))
         (fun (blocks, lines) ->
           let types = [| B.Gain; B.Sum; B.Subsystem; B.Constant |] in
           let block (name, t, nested) =
             {
               S.blk_name = name;
               blk_type = types.(t);
               blk_params = [ ("Tag", B.P_int t) ];
               blk_system = (if nested then Some (S.empty ("inner_" ^ name)) else None);
             }
           in
           let line (a, p, b, q) =
             { S.src = { S.block = a; port = p }; dst = { S.block = b; port = q } }
           in
           let outcome f =
             match f () with sys -> Ok sys | exception Invalid_argument m -> Error m
           in
           let sequence () =
             let sys =
               List.fold_left
                 (fun sys (b : S.block) ->
                   S.add_block ~params:b.S.blk_params ?system:b.S.blk_system sys b.S.blk_type
                     b.S.blk_name)
                 (S.empty "s") (List.map block blocks)
             in
             List.fold_left
               (fun sys (l : S.line) -> S.add_line sys ~src:l.S.src ~dst:l.S.dst)
               sys (List.map line lines)
           in
           outcome sequence
           = outcome (fun () -> S.make "s" (List.map block blocks) (List.map line lines))));
  ]

let library_tests =
  [
    test "mult maps to Product" (fun () ->
        match Library.lookup "mult" with
        | Some e -> check Alcotest.bool "product" true (e.Library.block_type = B.Product)
        | None -> Alcotest.fail "not found");
    test "lookup is case-insensitive" (fun () ->
        check Alcotest.bool "MULT" true (Library.lookup "MULT" <> None));
    test "unknown method not a library block" (fun () ->
        check Alcotest.bool "calc" false (Library.is_library_method "calc"));
    test "sub carries +- signs" (fun () ->
        match Library.lookup "sub" with
        | Some e ->
            check Alcotest.bool "signs" true
              (List.assoc_opt "Inputs" e.Library.params = Some (B.P_string "+-"))
        | None -> Alcotest.fail "not found");
  ]

let mdl_tests =
  [
    test "writer emits parsable text" (fun () ->
        let m = two_level () in
        let m' = Parser.parse_string (Writer.to_string m) in
        check Alcotest.string "name" m.Model.model_name m'.Model.model_name;
        check Alcotest.(list (pair string int)) "stats" (Model.stats m) (Model.stats m'));
    test "round trip reaches a textual fixpoint" (fun () ->
        let m = two_level () in
        let once = Writer.to_string (Parser.parse_string (Writer.to_string m)) in
        let twice = Writer.to_string (Parser.parse_string once) in
        check Alcotest.string "fixpoint" once twice);
    test "round trip preserves lines" (fun () ->
        let m = two_level () in
        let m' = Parser.parse_string (Writer.to_string m) in
        check Alcotest.int "root lines" 2 (List.length (S.lines m'.Model.root)));
    test "round trip preserves solver and stop time" (fun () ->
        let m = Model.make ~solver:"ode45" ~stop_time:3.5 ~name:"m" (S.empty "m") in
        let m' = Parser.parse_string (Writer.to_string m) in
        check Alcotest.string "solver" "ode45" m'.Model.solver;
        check (Alcotest.float 1e-9) "stop" 3.5 m'.Model.stop_time);
    test "quotes in names survive" (fun () ->
        let sys = S.add_block (S.empty "s") B.Gain "weird \"name\"" in
        let m = Model.make ~name:"q" sys in
        let m' = Parser.parse_string (Writer.to_string m) in
        check Alcotest.bool "found" true (S.find_block m'.Model.root "weird \"name\"" <> None));
    test "parse tree exposes sections" (fun () ->
        let tree = Parser.parse_tree (Writer.to_string (two_level ())) in
        check Alcotest.string "root" "Model" tree.Parser.section;
        check Alcotest.bool "has system" true
          (List.exists (fun c -> c.Parser.section = "System") tree.Parser.children));
    test "unterminated section rejected" (fun () ->
        match Parser.parse_string "Model {\n  Name \"x\"\n" with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.fail "expected Error");
    test "garbage rejected" (fun () ->
        match Parser.parse_string "}{" with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.fail "expected Error");
  ]

let caam_model () =
  (* Hand-built minimal CAAM: one CPU, two threads, one SWFIFO. *)
  let thread name blocks_fn =
    let sys = S.empty name in
    blocks_fn sys
  in
  let t1 =
    thread "T1" (fun sys ->
        let sys = S.add_block ~params:[ ("Value", B.P_float 1.0) ] sys B.Constant "c" in
        let sys = S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Outport "Out1" in
        S.add_line sys ~src:{ S.block = "c"; S.port = 1 } ~dst:{ S.block = "Out1"; S.port = 1 })
  in
  let t2 =
    thread "T2" (fun sys ->
        let sys = S.add_block ~params:[ ("Port", B.P_int 1) ] sys B.Inport "In1" in
        let sys = S.add_block sys B.Terminator "sink" in
        S.add_line sys ~src:{ S.block = "In1"; S.port = 1 } ~dst:{ S.block = "sink"; S.port = 1 })
  in
  let cpu = S.empty "CPU1" in
  let cpu = S.add_block ~system:t1 cpu B.Subsystem "T1" in
  let cpu = Caam.mark cpu "T1" Caam.Thread in
  let cpu = S.add_block ~system:t2 cpu B.Subsystem "T2" in
  let cpu = Caam.mark cpu "T2" Caam.Thread in
  let cpu =
    S.add_block
      ~params:
        [ (Caam.protocol_param, B.P_string "SWFIFO"); (Caam.role_param, B.P_string "comm") ]
      cpu B.Channel "ch1"
  in
  let cpu =
    S.add_line cpu ~src:{ S.block = "T1"; S.port = 1 } ~dst:{ S.block = "ch1"; S.port = 1 }
  in
  let cpu =
    S.add_line cpu ~src:{ S.block = "ch1"; S.port = 1 } ~dst:{ S.block = "T2"; S.port = 1 }
  in
  let top = S.empty "m" in
  let top = S.add_block ~system:cpu top B.Subsystem "CPU1" in
  let top = Caam.mark top "CPU1" Caam.Cpu in
  Model.make ~name:"m" top

let caam_tests =
  [
    test "roles readable" (fun () ->
        let m = caam_model () in
        check Alcotest.int "one cpu" 1 (List.length (Caam.cpus m));
        check Alcotest.int "two threads" 2
          (List.length (Caam.threads_of_cpu (List.hd (Caam.cpus m)))));
    test "thread_names pairs" (fun () ->
        check Alcotest.(list (pair string string)) "pairs"
          [ ("T1", "CPU1"); ("T2", "CPU1") ]
          (Caam.thread_names (caam_model ())));
    test "channels found with protocol" (fun () ->
        match Caam.channels (caam_model ()) with
        | [ (path, ch) ] ->
            check Alcotest.(list string) "path" [ "CPU1" ] path;
            check Alcotest.(option string) "protocol" (Some "SWFIFO") (Caam.protocol ch)
        | _ -> Alcotest.fail "expected one channel");
    test "classification by nesting" (fun () ->
        check Alcotest.bool "top inter" true (Caam.classify_channel ~path:[] = Caam.Inter_cpu);
        check Alcotest.bool "nested intra" true
          (Caam.classify_channel ~path:[ "CPU1" ] = Caam.Intra_cpu));
    test "check passes on good model" (fun () ->
        check Alcotest.(list string) "clean" [] (Caam.check (caam_model ())));
    test "check flags wrong protocol" (fun () ->
        let m = caam_model () in
        let root =
          S.map_systems
            (fun path sys ->
              if path = [ "CPU1" ] then
                S.set_param sys "ch1" Caam.protocol_param (B.P_string "GFIFO")
              else sys)
            m.Model.root
        in
        check Alcotest.bool "flagged" true (Caam.check (Model.make ~name:"m" root) <> []));
    test "check flags unmarked top subsystem" (fun () ->
        let top = S.add_block (S.empty "m") B.Subsystem "mystery" in
        check Alcotest.bool "flagged" true (Caam.check (Model.make ~name:"m" top) <> []));
  ]

module Diff = Umlfront_simulink.Model_diff

let diff_tests =
  [
    test "identical models are equivalent" (fun () ->
        check Alcotest.bool "eq" true (Diff.equivalent (two_level ()) (two_level ())));
    test "position differences are ignored by default" (fun () ->
        let m = two_level () in
        let laid = Umlfront_simulink.Layout.run m in
        check Alcotest.bool "eq" true (Diff.equivalent m laid);
        check Alcotest.bool "neq with empty ignore" false
          (Diff.equivalent ~ignore_params:[] m laid));
    test "added block and line reported with path" (fun () ->
        let m = two_level () in
        let root = S.add_block ~params:[ ("Gain", B.P_float 5.0) ] m.Model.root B.Gain "extra" in
        let m' = Model.make ~name:m.Model.model_name root in
        match Diff.diff m m' with
        | [ Diff.Block_added ([], "extra") ] -> ()
        | changes ->
            Alcotest.fail
              (Format.asprintf "unexpected: %a"
                 (Format.pp_print_list Diff.pp_change)
                 changes));
    test "param change reported" (fun () ->
        let m = two_level () in
        let root =
          S.map_systems
            (fun path sys ->
              if path = [ "sub" ] then S.set_param sys "g" "Gain" (B.P_float 3.0) else sys)
            m.Model.root
        in
        let m' = Model.make ~name:m.Model.model_name root in
        match Diff.diff m m' with
        | [ Diff.Param_changed ([ "sub" ], "g", "Gain", Some (B.P_float 2.0), Some (B.P_float 3.0)) ] -> ()
        | _ -> Alcotest.fail "expected one param change");
    test "nested removal reported per block" (fun () ->
        let m = two_level () in
        let root =
          { m.Model.root with S.sys_blocks =
              List.filter (fun (b : S.block) -> b.S.blk_name <> "sub") m.Model.root.S.sys_blocks;
            S.sys_lines = [] }
        in
        let m' = Model.make ~name:m.Model.model_name root in
        let removed =
          Diff.diff m m'
          |> List.filter (function Diff.Block_removed _ -> true | _ -> false)
        in
        check Alcotest.int "one top-level removal" 1 (List.length removed));
    test "line changes reported" (fun () ->
        let m = two_level () in
        let root =
          S.remove_line m.Model.root ~src:{ S.block = "src"; S.port = 1 }
            ~dst:{ S.block = "sub"; S.port = 1 }
        in
        let m' = Model.make ~name:m.Model.model_name root in
        match Diff.diff m m' with
        | [ Diff.Line_removed ([], _) ] -> ()
        | _ -> Alcotest.fail "expected one removed line");
  ]

let suite =
  [
    ("simulink:block", block_tests);
    ("simulink:system", system_tests);
    ("simulink:library", library_tests);
    ("simulink:mdl", mdl_tests);
    ("simulink:caam", caam_tests);
    ("simulink:diff", diff_tests);
  ]

(* shared with other test modules *)
let sample_two_level = two_level
let sample_caam = caam_model
