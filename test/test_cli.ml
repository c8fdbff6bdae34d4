(* The CLI as an adapter over the serving API.  Its stdout is pinned
   by the cli.* goldens (test/dune); these cases check what the goldens
   cannot: the files `codegen` writes against Api.run on the same
   model, the counts both surfaces reject, that `map --block-dot`
   runs the flow once, which engine `simulate` runs, and that the C
   `fsm` writes compiles. *)

module Api = Umlfront_serve.Api
module CS = Umlfront_casestudies
module U = Umlfront_uml
module Json = Umlfront_obs.Json

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let read_file path = In_channel.with_open_bin path In_channel.input_all
let exe = Filename.concat ".." (Filename.concat "bin" "umlfront.exe")

let run_cli args =
  let out = Filename.temp_file "umlfront_cli" ".out" in
  let err = Filename.temp_file "umlfront_cli" ".err" in
  let code = Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe args out err) in
  let slurp f =
    let s = read_file f in
    Sys.remove f;
    s
  in
  (code, slurp out, slurp err)

let with_dir f =
  let dir = Filename.temp_dir "umlfront_cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun name -> (name, read_file (Filename.concat dir name)))

let api_files lang uml =
  let outcome = Api.run (Api.Generate lang) Api.default_options uml in
  check Alcotest.int "generate status" 200 outcome.Api.status;
  match Json.member "files" (Json.parse_exn outcome.Api.body) with
  | Some (Json.Obj fields) ->
      List.map
        (fun (name, v) ->
          match v with
          | Json.String text -> (name, text)
          | _ -> Alcotest.failf "file %s is not a string" name)
        fields
      |> List.sort compare
  | _ -> Alcotest.fail "no files object"

let contains = Astring_contains.contains

let with_crane f =
  let model = Filename.temp_file "umlfront_cli" ".xml" in
  U.Xmi.save (CS.Crane_system.model ()) model;
  Fun.protect ~finally:(fun () -> Sys.remove model) (fun () -> f (Filename.quote model))

let codegen_tests =
  List.map
    (fun (flag, lang) ->
      test (Printf.sprintf "codegen -l %s writes the /api/generate/%s files" flag flag)
        (fun () ->
          with_crane (fun model ->
              with_dir (fun dir ->
                  let code, _, err =
                    run_cli
                      (Printf.sprintf "codegen %s -l %s -d %s" model flag
                         (Filename.quote dir))
                  in
                  check Alcotest.int ("exit 0: " ^ err) 0 code;
                  check
                    Alcotest.(list (pair string string))
                    "same names, same bytes"
                    (api_files lang (CS.Crane_system.model ()))
                    (dir_files dir)))))
    [ ("c", `C); ("java", `Java); ("kpn", `Kpn) ]

(* Counts must be >= 1 on the CLI as over HTTP: one parser, one error
   naming the flag and the value, exit 124 and no output written. *)
let count_tests =
  let rejected cmd ~flag ~value =
    test (Printf.sprintf "%s %s=%s exits 124" cmd flag value) (fun () ->
        with_crane (fun model ->
            let code, out, err =
              run_cli (Printf.sprintf "%s %s=%s %s" cmd flag value model)
            in
            check Alcotest.int "exit" 124 code;
            check Alcotest.string "no stdout" "" out;
            check Alcotest.bool ("stderr names " ^ flag ^ ": " ^ err) true
              (contains err flag);
            check Alcotest.bool ("stderr names " ^ value) true
              (contains err (Printf.sprintf "%S" value))))
  in
  [
    rejected "simulate" ~flag:"--rounds" ~value:"0";
    rejected "simulate" ~flag:"--rounds" ~value:"-3";
    rejected "conform" ~flag:"--rounds" ~value:"-1";
    rejected "map" ~flag:"--cpus" ~value:"0";
    test "codegen --rounds=-1 exits 124 and writes no file" (fun () ->
        with_crane (fun model ->
            with_dir (fun dir ->
                let code, _, err =
                  run_cli
                    (Printf.sprintf "codegen --rounds=-1 -d %s %s" (Filename.quote dir)
                       model)
                in
                check Alcotest.int "exit" 124 code;
                check Alcotest.bool "stderr names --rounds" true (contains err "--rounds");
                check Alcotest.(list string) "no file" [] (List.map fst (dir_files dir)))));
    test "the same counts are a bad query over HTTP" (fun () ->
        List.iter
          (fun (key, value) ->
            check Alcotest.bool (key ^ "=" ^ value) true
              (Result.is_error (Api.options_of_query [ (key, value) ])))
          [ ("rounds", "0"); ("rounds", "-3"); ("rounds", "-1"); ("cpus", "0") ]);
    test "rounds are uncapped on the CLI, capped over HTTP" (fun () ->
        with_crane (fun model ->
            let code, _, _ = run_cli ("simulate --csv -n 20000 " ^ model) in
            check Alcotest.int "CLI exit" 0 code;
            check Alcotest.bool "HTTP rejects" true
              (Result.is_error (Api.options_of_query [ ("rounds", "20000") ]))));
  ]

let map_tests =
  [
    test "map --block-dot runs the flow once" (fun () ->
        with_crane (fun model ->
            let mdl = Filename.temp_file "umlfront_cli" ".mdl" in
            let dot = Filename.temp_file "umlfront_cli" ".dot" in
            let journal = Filename.temp_file "umlfront_cli" ".jsonl" in
            let code, _, err =
              run_cli
                (Printf.sprintf "map %s -o %s --block-dot %s --journal %s" model
                   (Filename.quote mdl) (Filename.quote dot) (Filename.quote journal))
            in
            let mdl_text = read_file mdl and dot_text = read_file dot in
            let entries = String.split_on_char '\n' (read_file journal) in
            List.iter Sys.remove [ mdl; dot; journal ];
            check Alcotest.int ("exit 0: " ^ err) 0 code;
            check Alcotest.int "one flow.run entry" 1
              (List.length
                 (List.filter (fun l -> contains l "\"kind\":\"flow.run\"") entries));
            check Alcotest.string "the map golden"
              (read_file (Filename.concat "golden" "cli.map.crane.mdl"))
              mdl_text;
            check Alcotest.bool "a Graphviz digraph" true (contains dot_text "digraph")));
  ]

(* simulate runs the compiled plan unless --engine seq asks for the
   oracle, and prints the same bytes either way and on a pool. *)
let simulate_tests =
  [
    test "simulate runs the compiled plan; --engine seq and -j 2 print the same"
      (fun () ->
        with_crane (fun model ->
            let simulate args =
              let journal = Filename.temp_file "umlfront_cli" ".jsonl" in
              let code, out, err =
                run_cli
                  (Printf.sprintf "simulate --csv -n 50 %s%s --journal %s" args model
                     (Filename.quote journal))
              in
              let kinds = read_file journal in
              Sys.remove journal;
              check Alcotest.int ("exit 0: " ^ err) 0 code;
              (out, fun kind -> contains kinds (Printf.sprintf "\"kind\":\"%s\"" kind))
            in
            let default, journaled = simulate "" in
            check Alcotest.bool "compiled.run journaled" true (journaled "compiled.run");
            check Alcotest.bool "no exec.run" false (journaled "exec.run");
            let seq, journaled = simulate "--engine seq " in
            check Alcotest.bool "--engine seq journals exec.run" true (journaled "exec.run");
            check Alcotest.string "--engine seq prints the same CSV" default seq;
            let pooled, _ = simulate "-j 2 " in
            check Alcotest.string "-j 2 prints the same CSV" default pooled));
  ]

(* fsm names its files through M2t.sanitize, as the C it writes names
   the header it includes: a chart named elevator-mode gets
   elevator_mode.{h,c,dot}, and that C compiles. *)
let fsm_tests =
  [
    test "fsm names its files as its C includes them" (fun () ->
        let uml = CS.Elevator_system.model () in
        let rename (sc : U.Statechart.t) = { sc with U.Statechart.sc_name = "elevator-mode" } in
        let model = Filename.temp_file "umlfront_cli" ".xml" in
        U.Xmi.save { uml with U.Model.statecharts = List.map rename uml.U.Model.statecharts } model;
        Fun.protect ~finally:(fun () -> Sys.remove model) @@ fun () ->
        with_dir (fun dir ->
            let code, _, err =
              run_cli (Printf.sprintf "fsm -d %s %s" (Filename.quote dir) (Filename.quote model))
            in
            check Alcotest.int ("exit 0: " ^ err) 0 code;
            let written = List.map fst (dir_files dir) in
            check
              Alcotest.(list string)
              "file names" [ "elevator_mode.c"; "elevator_mode.dot"; "elevator_mode.h" ] written;
            List.iter
              (fun c ->
                let path = Filename.concat dir c in
                check Alcotest.int ("cc -c " ^ c) 0
                  (Sys.command
                     (Printf.sprintf "cc -c %s -o %s.o" (Filename.quote path)
                        (Filename.quote path))))
              (List.filter (fun f -> Filename.check_suffix f ".c") written)));
  ]

let suite =
  [
    ("cli: codegen parity", codegen_tests);
    ("cli: counts", count_tests);
    ("cli: map", map_tests);
    ("cli: simulate", simulate_tests);
    ("cli: fsm", fsm_tests);
  ]
