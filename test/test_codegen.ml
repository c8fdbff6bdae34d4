module Gen_threads = Umlfront_codegen.Gen_threads
module Gen_java = Umlfront_codegen.Gen_java
module Fifo = Umlfront_codegen.Fifo_runtime
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Core = Umlfront_core
module U = Umlfront_uml

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains

(* A UML model whose CAAM has env input, env output, an inter-CPU and an
   intra-CPU FIFO, an S-function, a Product and a feedback delay. *)
let pipeline_uml () =
  let b = U.Builder.create "pipe" in
  U.Builder.thread b "Tin";
  U.Builder.thread b "Tmid";
  U.Builder.thread b "Tout";
  U.Builder.platform b "P";
  U.Builder.io_device b "IO";
  U.Builder.passive_object b ~cls:"Stage" "stage";
  U.Builder.cpu b "CPU1";
  U.Builder.cpu b "CPU2";
  U.Builder.allocate b ~thread:"Tin" ~cpu:"CPU1";
  U.Builder.allocate b ~thread:"Tmid" ~cpu:"CPU1";
  U.Builder.allocate b ~thread:"Tout" ~cpu:"CPU2";
  let arg = U.Sequence.arg in
  let f = U.Datatype.D_float in
  U.Builder.call b ~from:"Tin" ~target:"IO" "getIn" ~result:(arg "x" f);
  U.Builder.call b ~from:"Tin" ~target:"stage" "prep" ~args:[ arg "x" f ]
    ~result:(arg "p" f);
  U.Builder.call b ~from:"Tin" ~target:"Tmid" "SetP" ~args:[ arg "p" f ];
  (* feedback inside Tmid: u depends on itself through sub/gain *)
  U.Builder.call b ~from:"Tmid" ~target:"P" "sub" ~args:[ arg "p" f; arg "u" f ]
    ~result:(arg "e" f);
  U.Builder.call b ~from:"Tmid" ~target:"P" "gain" ~args:[ arg "e" f ]
    ~result:(arg "u" f);
  U.Builder.call b ~from:"Tmid" ~target:"Tout" "SetU" ~args:[ arg "u" f ];
  U.Builder.call b ~from:"Tout" ~target:"P" "mult" ~args:[ arg "u" f; arg "u" f ]
    ~result:(arg "y" f);
  U.Builder.call b ~from:"Tout" ~target:"IO" "setOut" ~args:[ arg "y" f ];
  U.Builder.finish b

let pipeline_caam () =
  (Core.Flow.run ~strategy:Core.Flow.Use_deployment (pipeline_uml ())).Core.Flow.caam

let generated () = Gen_threads.generate ~rounds:6 (pipeline_caam ())

let write_files dir files =
  List.iter
    (fun (name, content) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc content;
      close_out oc)
    files

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let read_lines cmd =
  let ic = Unix.open_process_in cmd in
  let rec loop acc =
    match input_line ic with line -> loop (line :: acc) | exception End_of_file -> acc
  in
  let lines = List.rev (loop []) in
  ignore (Unix.close_process_in ic);
  lines

let have_java () = Sys.command "which javac >/dev/null 2>&1 && which java >/dev/null 2>&1" = 0

(* Compile and run the generated Java; its stdout lines. *)
let java_lines ~rounds caam =
  let dir = temp_dir "umlfront_java_run" in
  write_files dir [ ("Model.java", Gen_java.generate ~rounds ~class_name:"Model" caam) ];
  check Alcotest.int "javac exit 0" 0
    (Sys.command (Printf.sprintf "javac -d %s %s/Model.java 2>&1" dir dir));
  read_lines (Printf.sprintf "java -cp %s Model 2>/dev/null" dir)

(* Every printed sample against Exec.run: the generated program prints
   each top-level Outport once per round, in [graph_outputs] order. *)
let check_against_exec ~rounds caam lines =
  let reference = (Exec.run ~rounds (Sdf.of_model caam)).Exec.traces in
  let ports = List.length reference in
  check Alcotest.int "output lines" (rounds * ports) (List.length lines);
  List.iteri
    (fun i line ->
      let port, samples = List.nth reference (i mod ports) in
      let round = i / ports in
      match String.split_on_char ' ' line with
      | [ _label; r; value ] ->
          check Alcotest.int "round" round (int_of_string r);
          check (Alcotest.float 1e-9)
            (Printf.sprintf "%s round %d" port round)
            samples.(round) (float_of_string value)
      | _ -> Alcotest.fail ("bad output line: " ^ line))
    lines

(* sanitize is lossy: "sub.x" and "sub_x" in the same thread map to the
   same identifier.  The namer must give one of them a _2 suffix, in
   every language. *)
let colliding_caam () =
  let module Model = Umlfront_simulink.Model in
  let module S = Umlfront_simulink.System in
  let rename old_name new_name sys =
    let fix (p : S.port_ref) =
      if String.equal p.S.block old_name then { p with S.block = new_name } else p
    in
    {
      sys with
      S.sys_blocks =
        List.map
          (fun (b : S.block) ->
            if String.equal b.S.blk_name old_name then { b with S.blk_name = new_name } else b)
          sys.S.sys_blocks;
      S.sys_lines =
        List.map (fun (l : S.line) -> { S.src = fix l.S.src; S.dst = fix l.S.dst }) sys.S.sys_lines;
    }
  in
  let caam = pipeline_caam () in
  let root =
    S.map_systems
      (fun path sys ->
        if path = [ "CPU1"; "Tmid" ] then rename "gain" "sub.x" (rename "sub" "sub_x" sys)
        else sys)
      caam.Model.root
  in
  Model.make ~name:caam.Model.model_name root

let occurrences needle haystack =
  let n = String.length needle in
  let rec count i acc =
    if i + n > String.length haystack then acc
    else count (i + 1) (if String.sub haystack i n = needle then acc + 1 else acc)
  in
  count 0 0

let structure_tests =
  [
    test "sanitize produces identifiers" (fun () ->
        check Alcotest.string "slashes" "CPU1_T1_calc" (Gen_threads.sanitize "CPU1/T1/calc");
        check Alcotest.string "leading digit" "x1abc" (Gen_threads.sanitize "1abc"));
    test "one thread function per Thread-SS" (fun () ->
        let { Gen_threads.files } = generated () in
        let model_c = List.assoc "model.c" files in
        check Alcotest.bool "Tin" true (contains model_c "run_CPU1_Tin");
        check Alcotest.bool "Tmid" true (contains model_c "run_CPU1_Tmid");
        check Alcotest.bool "Tout" true (contains model_c "run_CPU2_Tout"));
    test "fifo protocols preserved in init calls" (fun () ->
        let { Gen_threads.files } = generated () in
        let model_c = List.assoc "model.c" files in
        check Alcotest.bool "swfifo" true (contains model_c "swfifo_init");
        check Alcotest.bool "gfifo" true (contains model_c "gfifo_init"));
    test "delay state is static with initial condition" (fun () ->
        let { Gen_threads.files } = generated () in
        let model_c = List.assoc "model.c" files in
        check Alcotest.bool "state var" true (contains model_c "static double state_"));
    test "sfunctions header declares user hooks" (fun () ->
        let { Gen_threads.files } = generated () in
        let h = List.assoc "sfunctions.h" files in
        check Alcotest.bool "prep" true (contains h "void sfun_prep"));
    test "channel Depth parameter reaches the fifo init" (fun () ->
        let module Model = Umlfront_simulink.Model in
        let module S = Umlfront_simulink.System in
        let module B = Umlfront_simulink.Block in
        let caam = pipeline_caam () in
        let root =
          S.map_systems
            (fun _ sys ->
              List.fold_left
                (fun sys (b : S.block) ->
                  if b.S.blk_type = B.Channel then
                    S.set_param sys b.S.blk_name "Depth" (B.P_int 8)
                  else sys)
                sys (S.blocks sys))
            caam.Model.root
        in
        let deepened = Model.make ~name:caam.Model.model_name root in
        let { Gen_threads.files } = Gen_threads.generate ~rounds:4 deepened in
        let model_c = List.assoc "model.c" files in
        check Alcotest.bool "depth 8" true (contains model_c ", 8);"));
    test "fifo runtime shipped" (fun () ->
        let { Gen_threads.files } = generated () in
        check Alcotest.bool "header" true (List.mem_assoc "fifo.h" files);
        check Alcotest.bool "source" true (List.mem_assoc "fifo.c" files));
  ]

let compile_tests =
  [
    test "generated C compiles and matches the OCaml simulator" (fun () ->
        let caam = pipeline_caam () in
        let dir = temp_dir "umlfront_c" in
        write_files dir (Gen_threads.generate ~rounds:6 caam).Gen_threads.files;
        let bin = Filename.concat dir "model" in
        let cmd =
          Printf.sprintf
            "gcc -pthread -o %s %s/model.c %s/sfunctions.c %s/fifo.c -lm 2>&1" bin dir dir
            dir
        in
        check Alcotest.int "gcc exit 0" 0 (Sys.command cmd);
        let lines = read_lines (bin ^ " 2>/dev/null") in
        check Alcotest.int "6 output lines" 6 (List.length lines);
        (* Compare against the reference SDF executor sample by sample. *)
        let sdf = Sdf.of_model caam in
        let reference = Exec.run ~rounds:6 sdf in
        let trace = snd (List.hd reference.Exec.traces) in
        List.iteri
          (fun i line ->
            match String.split_on_char ' ' line with
            | [ _port; round; value ] ->
                check Alcotest.int "round" i (int_of_string round);
                check (Alcotest.float 1e-6) "value" trace.(i) (float_of_string value)
            | _ -> Alcotest.fail ("bad output line: " ^ line))
          lines);
    test "colliding block paths disambiguate and still compile" (fun () ->
        let colliding = colliding_caam () in
        let { Gen_threads.files } = Gen_threads.generate ~rounds:6 colliding in
        let model_c = List.assoc "model.c" files in
        check Alcotest.bool "base ident used" true (contains model_c "v_CPU1_Tmid_sub_x_1");
        check Alcotest.bool "collision suffixed" true (contains model_c "v_CPU1_Tmid_sub_x_2_1");
        let dir = temp_dir "umlfront_collide" in
        write_files dir files;
        let bin = Filename.concat dir "model" in
        let cmd =
          Printf.sprintf
            "gcc -pthread -o %s %s/model.c %s/sfunctions.c %s/fifo.c -lm 2>&1" bin dir dir
            dir
        in
        check Alcotest.int "gcc exit 0" 0 (Sys.command cmd);
        (* Behaviour is untouched by the renaming: diff against the SDF
           executor on the same colliding model. *)
        let reference = Exec.run ~rounds:6 (Sdf.of_model colliding) in
        let trace = snd (List.hd reference.Exec.traces) in
        let lines = read_lines (bin ^ " 2>/dev/null") in
        check Alcotest.int "6 output lines" 6 (List.length lines);
        List.iteri
          (fun i line ->
            match String.split_on_char ' ' line with
            | [ _port; _round; value ] ->
                check (Alcotest.float 1e-6) "value" trace.(i) (float_of_string value)
            | _ -> Alcotest.fail ("bad output line: " ^ line))
          lines);
    test "colliding block paths stay distinct in Java and SystemC" (fun () ->
        let colliding = colliding_caam () in
        let sc = Umlfront_codegen.Gen_systemc.generate ~rounds:6 colliding in
        List.iter
          (fun var ->
            check Alcotest.int (var ^ " declared once") 1
              (occurrences (Printf.sprintf "double %s =" var) sc))
          [ "v_CPU1_Tmid_sub_x_1"; "v_CPU1_Tmid_sub_x_2_1" ];
        if have_java () then
          check_against_exec ~rounds:6 colliding (java_lines ~rounds:6 colliding));
    test "generated Java compiles under javac" (fun () ->
        if Sys.command "which javac >/dev/null 2>&1" <> 0 then ()
        else begin
          let caam = pipeline_caam () in
          let dir = temp_dir "umlfront_java" in
          let oc = open_out (Filename.concat dir "Pipe.java") in
          output_string oc (Gen_java.generate ~rounds:4 ~class_name:"Pipe" caam);
          close_out oc;
          check Alcotest.int "javac exit 0" 0
            (Sys.command (Printf.sprintf "javac -d %s %s/Pipe.java 2>&1" dir dir))
        end);
    test "generated Java runs to the executor's traces" (fun () ->
        if have_java () then
          List.iter
            (fun model ->
              let caam = (Core.Flow.run (model ())).Core.Flow.caam in
              check_against_exec ~rounds:8 caam (java_lines ~rounds:8 caam))
            [
              Umlfront_casestudies.Crane_system.model;
              Umlfront_casestudies.Synthetic_system.model;
            ]);
    test "java source is generated with queues and workers" (fun () ->
        let caam = pipeline_caam () in
        let java = Gen_java.generate ~rounds:6 ~class_name:"Pipe" caam in
        check Alcotest.bool "class" true (contains java "public final class Pipe");
        check Alcotest.bool "queue" true (contains java "ArrayBlockingQueue<Double>");
        check Alcotest.bool "worker" true (contains java "run_CPU1_Tmid");
        check Alcotest.bool "join" true (contains java "w.join()"));
  ]

let suite =
  [ ("codegen:structure", structure_tests); ("codegen:compile", compile_tests) ]
