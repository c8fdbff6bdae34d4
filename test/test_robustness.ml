(* Fuzzing and cross-cutting property tests: parsers never escape their
   declared error types, partitioning preserves behaviour on random
   monolithic models, capture round-trips random flow outputs, and the
   granularity metric behaves per Gerasoulis & Yang. *)

module Xml = Umlfront_xml.Xml
module Parser = Umlfront_simulink.Mdl_parser
module Writer = Umlfront_simulink.Mdl_writer
module Model = Umlfront_simulink.Model
module Caam = Umlfront_simulink.Caam
module U = Umlfront_uml
module Core = Umlfront_core
module G = Umlfront_taskgraph.Graph
module C = Umlfront_taskgraph.Clustering
module Gen = Umlfront_taskgraph.Generator
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let arg = U.Sequence.arg
let f32 = U.Datatype.D_float

(* Documents strung together from XML tokens: tags with attributes,
   comments, CDATA, and entity and character references whose digits
   are arbitrary. *)
let xml_tokens =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "uml:Model"; "x-1"; "" ] in
  let digits =
    string_size ~gen:(oneofl [ '0'; '7'; '9'; 'a'; 'F'; 'x'; 'Z'; '-'; '+'; '_'; 'o'; 'b'; ' ' ])
      (0 -- 8)
  in
  let reference =
    oneof
      [
        map (fun d -> "&#" ^ d ^ ";") digits;
        map (fun d -> "&#x" ^ d ^ ";") digits;
        oneofl [ "&amp;"; "&lt;"; "&quot;"; "&bogus;"; "&"; "&#"; ";" ];
      ]
  in
  let attribute =
    map3 (fun k q v -> Printf.sprintf " %s=%c%s%c" k q v q) name (oneofl [ '"'; '\'' ]) reference
  in
  let token =
    oneof
      [
        map2 (fun n a -> "<" ^ n ^ String.concat "" a ^ ">") name (list_size (0 -- 2) attribute);
        map2 (fun n a -> "<" ^ n ^ String.concat "" a ^ "/>") name (list_size (0 -- 2) attribute);
        map (fun n -> "</" ^ n ^ ">") name;
        reference;
        oneofl
          [ "<!-- c -->"; "<!--"; "-->"; "<![CDATA[x]]>"; "<![CDATA["; "]]>"; "<?xml?>";
            "<!DOCTYPE a>"; " "; "\n"; "text"; "<"; ">"; "=" ];
      ]
  in
  map (String.concat "") (list_size (0 -- 30) token)

let fuzz_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"xml parser only raises Parse_error" ~count:500
         (QCheck.make ~print:(Printf.sprintf "%S")
            QCheck.Gen.(
              oneof [ string_size (int_bound 60); xml_tokens ]))
         (fun junk ->
           match Xml.parse_string junk with
           | _ -> true
           | exception Xml.Parse_error _ -> true
           | exception _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mdl parser only raises Error" ~count:500
         QCheck.(string_of_size (QCheck.Gen.int_bound 60))
         (fun junk ->
           match Parser.parse_string junk with
           | _ -> true
           | exception Parser.Error _ -> true
           | exception _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"xml parser survives mutated valid documents" ~count:200
         QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (QCheck.make QCheck.Gen.(int_bound 200)))
         (fun (seed, pos) ->
           let doc = U.Xmi.to_string (Umlfront_casestudies.Didactic.model ()) in
           let state = Random.State.make [| seed |] in
           let bytes = Bytes.of_string doc in
           let p = pos mod Bytes.length bytes in
           Bytes.set bytes p (Char.chr (Random.State.int state 128));
           match Xml.parse_string (Bytes.to_string bytes) with
           | _ -> true
           | exception Xml.Parse_error _ -> true
           | exception _ -> false));
    test "mdl parser reports bad models as Error" (fun () ->
        let model ?(stop_time = "10") ?(block_type = "Gain") ?(second = "h")
            ?(src_port = "1") ?(dst_block = "h") () =
          Printf.sprintf
            {|Model {
  Name "m"
  StopTime %s
  System {
    Name "m"
    Block {
      BlockType %s
      Name "g"
    }
    Block {
      BlockType Gain
      Name "%s"
    }
    Line {
      SrcBlock "g"
      SrcPort %s
      DstBlock "%s"
      DstPort 1
    }
  }
}
|}
            stop_time block_type second src_port dst_block
        in
        ignore (Parser.parse_string (model ()));
        List.iter
          (fun (text, message) ->
            match Parser.parse_string text with
            | _ -> Alcotest.failf "accepted, expected %S" message
            | exception Parser.Error { line; message = got } ->
                check Alcotest.(pair int string) message (0, message) (line, got))
          [
            (model ~block_type:"Bogus" (), "unknown BlockType \"Bogus\"");
            (model ~src_port:"one" (), "Line SrcPort is not a number: \"one\"");
            (model ~stop_time:"soon" (), "Model StopTime is not a number: \"soon\"");
            (model ~second:"g" ~dst_block:"g" (), "system m: duplicate block g");
            (model ~dst_block:"missing" (), "system m: no block missing");
          ]);
    test "mdl tokenizer skips # comments" (fun () ->
        let text =
          "Model {\n# a comment line\n  Name \"m\"\n  System {\n    Name \"m\"\n  }\n}\n"
        in
        let m = Parser.parse_string text in
        check Alcotest.string "name" "m" m.Model.model_name);
  ]

let random_monolithic ~seed ~calls =
  Umlfront_casestudies.Random_models.monolithic ~seed ~calls

let mono_params =
  QCheck.make
    ~print:(fun (seed, calls) -> Printf.sprintf "seed=%d calls=%d" seed calls)
    QCheck.Gen.(pair (int_bound 10_000) (2 -- 10))

let traces uml =
  let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear uml in
  (Exec.run ~rounds:4 (Sdf.of_model out.Core.Flow.caam)).Exec.traces

let partitioning_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"partitioning preserves behaviour on random models"
         ~count:30 mono_params
         (fun (seed, calls) ->
           let uml = random_monolithic ~seed ~calls in
           let r = Core.Partitioning.run uml in
           U.Validate.check r.Core.Partitioning.partitioned = []
           && traces uml = traces r.Core.Partitioning.partitioned));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bounded partitioning respects the limit" ~count:30
         mono_params
         (fun (seed, calls) ->
           let r = Core.Partitioning.run ~threads:2 (random_monolithic ~seed ~calls) in
           List.length
             (List.sort_uniq compare (List.map snd r.Core.Partitioning.thread_of_call))
           <= 2));
  ]

let capture_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"capture round-trips random flow outputs" ~count:20
         mono_params
         (fun (seed, calls) ->
           let uml = random_monolithic ~seed ~calls in
           let r = Core.Partitioning.run uml in
           let out =
             Core.Flow.run ~strategy:Core.Flow.Infer_linear r.Core.Partitioning.partitioned
           in
           let recovered = Core.Capture.run out.Core.Flow.caam in
           U.Validate.check recovered = []
           &&
           let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
           Caam.check out2.Core.Flow.caam = []
           && Caam.thread_names out2.Core.Flow.caam = Caam.thread_names out.Core.Flow.caam));
  ]

let granularity_tests =
  [
    test "edge-free graph is infinitely coarse" (fun () ->
        let g = G.of_lists ~nodes:[ ("a", 1.0); ("b", 2.0) ] ~edges:[] in
        check Alcotest.bool "inf" true (C.granularity g = infinity));
    test "hand-computed grain" (fun () ->
        (* a(4) -2-> b(1): grain at a = 4/2, at b = min(4,1)/2 ... both
           consider adjacent computation; minimum is 1/2. *)
        let g = G.of_lists ~nodes:[ ("a", 4.0); ("b", 1.0) ] ~edges:[ ("a", "b", 2.0) ] in
        check (Alcotest.float 1e-9) "0.5" 0.5 (C.granularity g));
    test "scaling communication scales grain inversely" (fun () ->
        let mk ccr = Gen.layered ~seed:11 ~layers:4 ~width:4 ~edge_probability:0.5 ~ccr () in
        let coarse = C.granularity (mk 0.1) in
        let fine = C.granularity (mk 10.0) in
        check Alcotest.bool "coarse > fine" true (coarse > fine));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"granularity positive on generated graphs" ~count:50
         (QCheck.make QCheck.Gen.(int_bound 1000))
         (fun seed ->
           let g = Gen.layered ~seed ~layers:4 ~width:4 ~edge_probability:0.5 ~ccr:1.0 () in
           C.granularity g > 0.0));
  ]

let layout_edge_tests =
  [
    test "position parse failure yields None" (fun () ->
        let sys =
          Umlfront_simulink.System.add_block
            ~params:[ ("Position", Umlfront_simulink.Block.P_string "garbage") ]
            (Umlfront_simulink.System.empty "s") Umlfront_simulink.Block.Gain "g"
        in
        let b = Umlfront_simulink.System.find_block_exn sys "g" in
        check Alcotest.bool "none" true (Umlfront_simulink.Layout.position b = None));
    test "loop breaker refuses a hopeless model politely" (fun () ->
        (* max_iterations 0 forces the failure path on a cyclic model. *)
        let module S = Umlfront_simulink.System in
        let module B = Umlfront_simulink.Block in
        let sys = S.add_block (S.empty "m") B.Gain "g1" in
        let sys = S.add_block sys B.Gain "g2" in
        let sys = S.add_line sys ~src:{ S.block = "g1"; S.port = 1 } ~dst:{ S.block = "g2"; S.port = 1 } in
        let sys = S.add_line sys ~src:{ S.block = "g2"; S.port = 1 } ~dst:{ S.block = "g1"; S.port = 1 } in
        let m = Model.make ~name:"m" sys in
        match Core.Loop_breaker.run ~max_iterations:0 m with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure");
  ]

(* Differential testing: the generated pthread C must reproduce the
   OCaml executor sample-for-sample on random models. *)
let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated C matches the executor on random models"
         ~count:8
         (QCheck.make
            ~print:(fun (seed, threads, extra) ->
              Printf.sprintf "seed=%d threads=%d extra=%d" seed threads extra)
            QCheck.Gen.(triple (int_bound 5_000) (2 -- 6) (0 -- 4)))
         (fun (seed, threads, extra) ->
           let uml = Test_integration.random_uml ~seed ~threads ~extra_edges:extra in
           let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear uml in
           let caam = out.Core.Flow.caam in
           let dir = Filename.temp_file "umlfront_diffc" "" in
           Sys.remove dir;
           Sys.mkdir dir 0o755;
           List.iter
             (fun (name, content) ->
               let oc = open_out (Filename.concat dir name) in
               output_string oc content;
               close_out oc)
             (Umlfront_codegen.Gen_threads.generate ~rounds:5 caam)
               .Umlfront_codegen.Gen_threads.files;
           let bin = Filename.concat dir "model" in
           let compiled =
             Sys.command
               (Printf.sprintf
                  "gcc -pthread -o %s %s/model.c %s/sfunctions.c %s/fifo.c -lm 2>/dev/null"
                  bin dir dir dir)
             = 0
           in
           compiled
           &&
           let ic = Unix.open_process_in (bin ^ " 2>/dev/null") in
           let lines = ref [] in
           (try
              while true do
                lines := input_line ic :: !lines
              done
            with End_of_file -> ());
           ignore (Unix.close_process_in ic);
           let lines = List.rev !lines in
           let reference =
             (Exec.run ~rounds:5 (Sdf.of_model caam)).Exec.traces
           in
           let samples = snd (List.hd reference) in
           List.length lines = 5
           && List.for_all2
                (fun line expected ->
                  match String.split_on_char ' ' line with
                  | [ _; _; v ] -> Float.abs (float_of_string v -. expected) < 1e-6
                  | _ -> false)
                lines (Array.to_list samples)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"KPN reproduces full executor traces on random models"
         ~count:10
         (QCheck.make
            ~print:(fun (seed, threads) -> Printf.sprintf "seed=%d threads=%d" seed threads)
            QCheck.Gen.(pair (int_bound 5_000) (2 -- 6)))
         (fun (seed, threads) ->
           let uml = Test_integration.random_uml ~seed ~threads ~extra_edges:2 in
           let out = Core.Flow.run ~strategy:Core.Flow.Infer_linear uml in
           let sdf = Sdf.of_model out.Core.Flow.caam in
           let rounds = 4 in
           let reference = (Exec.run ~rounds sdf).Exec.traces in
           let kpn = Umlfront_dataflow.Kpn.run (Umlfront_dataflow.Kpn.of_sdf ~rounds sdf) in
           (* the KPN sink result is the last sample per output port *)
           List.for_all
             (fun (port, samples) ->
               match List.assoc_opt port kpn.Umlfront_dataflow.Kpn.results with
               | Some v -> Float.abs (v -. samples.(rounds - 1)) < 1e-9
               | None -> false)
             reference));
  ]

let suite =
  [
    ("robustness:fuzz", fuzz_tests);
    ("robustness:differential", differential_tests);
    ("robustness:partitioning", partitioning_property_tests);
    ("robustness:capture", capture_property_tests);
    ("robustness:granularity", granularity_tests);
    ("robustness:edges", layout_edge_tests);
  ]
