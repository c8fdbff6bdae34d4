(* The extended block library (Abs, Sqrt, Trig, MinMax, Math) through
   the whole chain: library lookup, mapping, execution semantics, C
   codegen (compiled and diffed against the executor), and reverse
   capture. *)

module U = Umlfront_uml
module Core = Umlfront_core
module B = Umlfront_simulink.Block
module Library = Umlfront_simulink.Library
module Sdf = Umlfront_dataflow.Sdf
module Exec = Umlfront_dataflow.Exec
module Gen_threads = Umlfront_codegen.Gen_threads

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let arg = U.Sequence.arg
let f32 = U.Datatype.D_float

(* One thread exercising the whole math library:
   x = getIn(); s = sin(x); c = cos(x); m = max(s, c); a = abs(m);
   q = sqrt(a); e = exp(q); setOut(e). *)
let math_uml () =
  let b = U.Builder.create "mathbox" in
  U.Builder.thread b "T";
  U.Builder.platform b "Platform";
  U.Builder.io_device b "IO";
  U.Builder.cpu b "CPU";
  U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
  U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "x" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "sin" ~args:[ arg "x" f32 ]
    ~result:(arg "s" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "cos" ~args:[ arg "x" f32 ]
    ~result:(arg "c" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "max"
    ~args:[ arg "s" f32; arg "c" f32 ]
    ~result:(arg "m" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "abs" ~args:[ arg "m" f32 ]
    ~result:(arg "a" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "sqrt" ~args:[ arg "a" f32 ]
    ~result:(arg "q" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "exp" ~args:[ arg "q" f32 ]
    ~result:(arg "e" f32);
  U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg "e" f32 ];
  U.Builder.finish b

let flow () = Core.Flow.run ~strategy:Core.Flow.Use_deployment (math_uml ())

(* x = getIn(); q = sqrt(x); c = cos(x); m = max(q, c); setOut(m): the
   stimulus goes negative, so q and m are NaN in some rounds. *)
let nan_max_uml () =
  let b = U.Builder.create "nanmax" in
  U.Builder.thread b "T";
  U.Builder.platform b "Platform";
  U.Builder.io_device b "IO";
  U.Builder.cpu b "CPU";
  U.Builder.allocate b ~thread:"T" ~cpu:"CPU";
  U.Builder.call b ~from:"T" ~target:"IO" "getIn" ~result:(arg "x" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "sqrt" ~args:[ arg "x" f32 ]
    ~result:(arg "q" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "cos" ~args:[ arg "x" f32 ]
    ~result:(arg "c" f32);
  U.Builder.call b ~from:"T" ~target:"Platform" "max"
    ~args:[ arg "q" f32; arg "c" f32 ]
    ~result:(arg "m" f32);
  U.Builder.call b ~from:"T" ~target:"IO" "setOut" ~args:[ arg "m" f32 ];
  U.Builder.finish b

let library_tests =
  [
    test "new methods resolve to library blocks" (fun () ->
        List.iter
          (fun (name, ty) ->
            match Library.lookup name with
            | Some e -> check Alcotest.bool name true (e.Library.block_type = ty)
            | None -> Alcotest.fail (name ^ " not in library"))
          [
            ("abs", B.Abs); ("sqrt", B.Sqrt); ("sin", B.Trig); ("cos", B.Trig);
            ("tan", B.Trig); ("min", B.Min_max); ("max", B.Min_max);
            ("exp", B.Math); ("log", B.Math);
          ]);
    test "Function parameter distinguishes variants" (fun () ->
        match (Library.lookup "sin", Library.lookup "cos") with
        | Some s, Some c ->
            check Alcotest.bool "sin" true
              (List.assoc_opt "Function" s.Library.params = Some (B.P_string "sin"));
            check Alcotest.bool "cos" true
              (List.assoc_opt "Function" c.Library.params = Some (B.P_string "cos"))
        | _ -> Alcotest.fail "library entries missing");
    test "block type names round-trip" (fun () ->
        List.iter
          (fun ty -> check Alcotest.bool (B.to_string ty) true (B.of_string (B.to_string ty) = ty))
          [ B.Abs; B.Sqrt; B.Trig; B.Min_max; B.Math ]);
  ]

let semantics_tests =
  [
    test "executor computes exp(sqrt(abs(max(sin x, cos x))))" (fun () ->
        let out = flow () in
        let sdf = Sdf.of_model out.Core.Flow.caam in
        let stimulus _ round = 0.5 +. (0.3 *. float_of_int round) in
        let outcome = Exec.run ~stimulus ~rounds:4 sdf in
        let samples = List.assoc "Out" outcome.Exec.traces in
        Array.iteri
          (fun round v ->
            let x = stimulus () round in
            let expected = exp (sqrt (Float.abs (Float.max (sin x) (cos x)))) in
            check (Alcotest.float 1e-12) (Printf.sprintf "round %d" round) expected v)
          samples);
    test "mapping instantiated the right block types" (fun () ->
        let out = flow () in
        let rec thread_sys sys = function
          | [] -> sys
          | p :: rest ->
              thread_sys
                (Option.get
                   Umlfront_simulink.System.((find_block_exn sys p).blk_system))
                rest
        in
        let sys =
          thread_sys out.Core.Flow.caam.Umlfront_simulink.Model.root [ "CPU"; "T" ]
        in
        List.iter
          (fun (name, ty) ->
            match Umlfront_simulink.System.find_block sys name with
            | Some b ->
                check Alcotest.bool name true (b.Umlfront_simulink.System.blk_type = ty)
            | None -> Alcotest.fail (name ^ " block missing"))
          [
            ("sin", B.Trig); ("cos", B.Trig); ("max", B.Min_max); ("abs", B.Abs);
            ("sqrt", B.Sqrt); ("exp", B.Math);
          ]);
  ]

let codegen_tests =
  [
    test "generated C matches the executor on math blocks" (fun () ->
        let out = flow () in
        let caam = out.Core.Flow.caam in
        let dir = Filename.temp_file "umlfront_math" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        List.iter
          (fun (name, content) ->
            let oc = open_out (Filename.concat dir name) in
            output_string oc content;
            close_out oc)
          (Gen_threads.generate ~rounds:5 caam).Gen_threads.files;
        let bin = Filename.concat dir "model" in
        let cmd =
          Printf.sprintf "gcc -pthread -o %s %s/model.c %s/sfunctions.c %s/fifo.c -lm 2>&1"
            bin dir dir dir
        in
        check Alcotest.int "gcc" 0 (Sys.command cmd);
        let ic = Unix.open_process_in (bin ^ " 2>/dev/null") in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        ignore (Unix.close_process_in ic);
        let lines = List.rev !lines in
        let sdf = Sdf.of_model caam in
        let reference = (Exec.run ~rounds:5 sdf).Exec.traces in
        let samples = snd (List.hd reference) in
        List.iteri
          (fun i line ->
            match String.split_on_char ' ' line with
            | [ _; _; value ] ->
                check (Alcotest.float 1e-6) (Printf.sprintf "round %d" i) samples.(i)
                  (float_of_string value)
            | _ -> Alcotest.fail ("bad line " ^ line))
          lines);
    test "generated C propagates NaN through MinMax like the executor" (fun () ->
        let module Conform = Umlfront_conformance.Conform in
        let out = Core.Flow.run ~strategy:Core.Flow.Use_deployment (nan_max_uml ()) in
        let caam = out.Core.Flow.caam in
        let report = Conform.check ~backends:[ Conform.Seq; Conform.C ] ~rounds:20 caam in
        check Alcotest.bool "seq and C agree" true (Conform.agree report));
    test "systemc references std math" (fun () ->
        let out = flow () in
        let sc = Umlfront_codegen.Gen_systemc.generate out.Core.Flow.caam in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (Astring_contains.contains sc needle))
          [ "std::sin"; "std::cos"; "std::fmax"; "std::fabs"; "std::sqrt"; "std::exp" ]);
    test "java references Math" (fun () ->
        let out = flow () in
        let java = Umlfront_codegen.Gen_java.generate out.Core.Flow.caam in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (Astring_contains.contains java needle))
          [ "Math.sin"; "Math.cos"; "Math.max"; "Math.abs"; "Math.sqrt"; "Math.exp" ]);
  ]

let capture_tests =
  [
    test "capture recovers the exact Platform methods" (fun () ->
        let out = flow () in
        let recovered = Core.Capture.run out.Core.Flow.caam in
        let ops =
          U.Model.behaviours recovered
          |> List.concat_map (fun (sd : U.Sequence.t) -> sd.U.Sequence.sd_messages)
          |> List.filter (fun (m : U.Sequence.message) ->
                 U.Model.kind_of_instance recovered m.U.Sequence.msg_to
                 = Some U.Classifier.Platform)
          |> List.map (fun (m : U.Sequence.message) -> m.U.Sequence.msg_operation)
          |> List.sort compare
        in
        check Alcotest.(list string) "methods"
          [ "abs"; "cos"; "exp"; "max"; "sin"; "sqrt" ]
          ops);
    test "behavioural round-trip with math blocks" (fun () ->
        let out = flow () in
        let recovered = Core.Capture.run out.Core.Flow.caam in
        let out2 = Core.Flow.run ~strategy:Core.Flow.Use_deployment recovered in
        let stimulus _ round = 0.2 +. (0.1 *. float_of_int round) in
        let t1 =
          (Exec.run ~stimulus ~rounds:5 (Sdf.of_model out.Core.Flow.caam)).Exec.traces
        in
        let t2 =
          (Exec.run ~stimulus ~rounds:5 (Sdf.of_model out2.Core.Flow.caam)).Exec.traces
        in
        List.iter2
          (fun (p1, s1) (p2, s2) ->
            check Alcotest.string "port" p1 p2;
            check Alcotest.(array (float 1e-12)) p1 s1 s2)
          t1 t2);
  ]

let suite =
  [
    ("blocks:library", library_tests);
    ("blocks:semantics", semantics_tests);
    ("blocks:codegen", codegen_tests);
    ("blocks:capture", capture_tests);
  ]
