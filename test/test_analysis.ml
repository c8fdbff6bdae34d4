(* The static-analysis subsystem, exercised the adversarial way: for
   every lint rule, a seeded-defect ("mutation") helper injects exactly
   one defect into a clean case-study model and the rule must fire on
   the mutant while the whole catalog stays silent on the original.
   Plus: a qcheck property that the synthesizer only ever emits
   lint-clean CAAMs, golden-file tests pinning the text/JSON report
   formats byte-for-byte, and CLI tests driving the installed binary
   through the lint/stats failure paths. *)

module U = Umlfront_uml
module A = Umlfront_analysis
module D = Umlfront_analysis.Diagnostic
module Core = Umlfront_core
module S = Umlfront_simulink.System
module B = Umlfront_simulink.Block
module Caam = Umlfront_simulink.Caam
module Model = Umlfront_simulink.Model
module Sdf = Umlfront_dataflow.Sdf
module CS = Umlfront_casestudies
module Obs = Umlfront_obs

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains

(* The seeded-defect mutation helpers (and the crane accessors) live in
   the shared lint_mutants library so golden_gen.exe can use them too. *)
open Lint_mutants

let codes ds = List.sort_uniq String.compare (List.map (fun (d : D.t) -> d.D.code) ds)
let fires code ds = check Alcotest.bool (code ^ " fires") true (List.mem code (codes ds))

let silent_on name ds =
  check Alcotest.(list string) (name ^ " is lint-clean") [] (codes ds)

(* --- rule-by-rule: mutant fires, original stays silent -------------- *)

let uml_mutation_tests =
  let positive code mutate =
    test (code ^ " fires on its mutant") (fun () ->
        fires code (A.Lint.check_uml (mutate (crane ()))))
  in
  [
    positive "UF001" mut_undeclared_operation;
    positive "UF001" mut_unknown_callee;
    positive "UF002" mut_unconsumed_set;
    positive "UF003" mut_unproduced_get;
    positive "UF004" mut_io_misuse;
    positive "UF004" mut_io_read_no_result;
    positive "UF005" mut_undeployed_thread;
    positive "UF005" mut_node_without_saengine;
    test "UML rules silent on the clean crane model" (fun () ->
        silent_on "crane (uml)" (A.Lint.check_uml (crane ())));
    test "UF002 severity is warning, UF001 error" (fun () ->
        let ds = A.Lint.check_uml (mut_unconsumed_set (crane ())) in
        check Alcotest.bool "warning" true (D.errors ds = [] && D.warnings ds <> []);
        let ds = A.Lint.check_uml (mut_undeclared_operation (crane ())) in
        check Alcotest.bool "error" true (D.errors ds <> []));
  ]

let caam_mutation_tests =
  let positive code mutate =
    test (code ^ " fires on its mutant") (fun () ->
        fires code (A.Lint.check_caam (mutate (crane_caam ()))))
  in
  [
    positive "UF101" mut_dangle_port;
    positive "UF101" mut_unconnected_sink;
    positive "UF102" mut_unconnected_source;
    positive "UF103" mut_duplicate_name;
    positive "UF104" mut_flip_protocol;
    positive "UF105" mut_strip_cpu_role;
    positive "UF106" mut_channel_fanout;
    positive "UF202" mut_drop_unit_delay;
    positive "UF203" mut_zero_capacity;
    test "UF190 fires when the mutant cannot be flattened" (fun () ->
        fires "UF190" (A.Lint.check_caam (mut_unflattenable (crane_caam ()))));
    test "CAAM rules silent on the clean crane CAAM" (fun () ->
        silent_on "crane (caam)" (A.Lint.check_caam (crane_caam ())));
    test "UF102/UF203 are warnings, UF104 an error" (fun () ->
        let ds = A.Lint.check_caam (mut_unconnected_source (crane_caam ())) in
        check Alcotest.bool "UF102 warning" true (D.errors ds = []);
        let ds = A.Lint.check_caam (mut_zero_capacity (crane_caam ())) in
        check Alcotest.bool "UF203 warning" true (D.errors ds = []);
        let ds = A.Lint.check_caam (mut_flip_protocol (crane_caam ())) in
        check Alcotest.bool "UF104 error" true (D.errors ds <> []));
  ]

(* --- SDF rules: repetition vector and deadlock ---------------------- *)

let crane_sdf () = Sdf.of_model (crane_caam ())

let delay_actor sdf =
  List.find
    (fun (a : Sdf.actor) -> a.Sdf.actor_block.S.blk_type = B.Unit_delay)
    sdf.Sdf.actors

let sdf_tests =
  [
    test "repetition vector of a single-rate graph is all ones" (fun () ->
        let sdf = crane_sdf () in
        match A.Sdf_rules.repetition_vector sdf with
        | Ok counts ->
            check Alcotest.int "actors" (List.length sdf.Sdf.actors) (List.length counts);
            List.iter (fun (_, n) -> check Alcotest.int "count" 1 n) counts
        | Error _ -> Alcotest.fail "expected a repetition vector");
    test "UF201 fires on inconsistent rates around a cycle" (fun () ->
        let sdf = crane_sdf () in
        let delay = delay_actor sdf in
        let rates (e : Sdf.edge) =
          if String.equal e.Sdf.edge_src delay.Sdf.actor_name then (2, 1) else (1, 1)
        in
        match A.Sdf_rules.repetition_vector ~rates sdf with
        | Error ds -> fires "UF201" ds
        | Ok _ -> Alcotest.fail "expected inconsistent balance equations");
    test "consistent multirate graph scales to smallest integers" (fun () ->
        (* downsampler: b consumes 2 tokens per firing, so a fires twice *)
        let root = S.empty "m" in
        let root = S.add_block root B.Constant "a" in
        let root = S.add_block ~params:[ ("Port", B.P_int 1) ] root B.Outport "b" in
        let root = S.add_line root ~src:{ S.block = "a"; port = 1 } ~dst:{ S.block = "b"; port = 1 } in
        let sdf = Sdf.of_model (Model.make ~name:"m" root) in
        let rates _ = (1, 2) in
        match A.Sdf_rules.repetition_vector ~rates sdf with
        | Ok counts ->
            check Alcotest.(list (pair string int)) "vector"
              [ ("a", 2); ("b", 1) ]
              (List.sort compare counts)
        | Error _ -> Alcotest.fail "expected a repetition vector");
    test "UF202 names the zero-delay cycle" (fun () ->
        let ds = A.Lint.check_caam (mut_drop_unit_delay (crane_caam ())) in
        match List.filter (fun (d : D.t) -> String.equal d.D.code "UF202") ds with
        | d :: _ ->
            check Alcotest.bool "cycle named" true (contains d.D.message "->")
        | [] -> Alcotest.fail "expected UF202");
    test "buffer bounds: one slot per forward channel on crane" (fun () ->
        let sdf = crane_sdf () in
        let bounds = A.Sdf_rules.buffer_bounds sdf in
        check Alcotest.bool "has channels" true (bounds <> []);
        List.iter (fun (_, b) -> check Alcotest.bool "1 or 2 slots" true (b >= 1 && b <= 2)) bounds);
  ]

(* --- the synthesizer invariant: Flow output is always lint-clean ---- *)

let qcheck_flow_lint_clean =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"flow emits a lint-clean CAAM for 100 random workloads" ~count:100
       (QCheck.make
          ~print:(fun (wide, seed, a, b) ->
            Printf.sprintf "(%s, seed %d, %d, %d)"
              (if wide then "wide" else "pipeline")
              seed a b)
          QCheck.Gen.(quad bool (0 -- 1000) (2 -- 6) (0 -- 3)))
       (fun (wide, seed, a, b) ->
         let uml =
           if wide then CS.Random_models.wide ~seed ~branches:(1 + b) ~depth:(a - 1)
           else CS.Random_models.pipeline ~seed ~threads:a ~extra_edges:b
         in
         let out = Core.Flow.run uml in
         A.Lint.check ~uml out.Core.Flow.caam = []))

(* --- synthesis without layout ----------------------------------------

   Every endpoint but transform computes on Flow.synthesize's CAAM,
   transform on Flow.run's laid-out one.  Both must be one model but
   for the Position parameters, every reader of the former must answer
   the same on either: lint, the C, Java, SystemC and KPN generators,
   and the Exec.run oracle; and synthesis must reject what the flow
   rejects. *)

let without_positions (m : Model.t) =
  {
    m with
    Model.root =
      S.map_systems
        (fun _ sys ->
          {
            sys with
            S.sys_blocks =
              List.map
                (fun (b : S.block) ->
                  { b with S.blk_params = List.remove_assoc "Position" b.S.blk_params })
                sys.S.sys_blocks;
          })
        m.Model.root;
  }

(* [None] when both CAAMs agree, else the first reader that tells them
   apart.  [compare], not [=]: a trace may hold NaN. *)
let split_disagreement uml =
  let module Gen = Umlfront_codegen in
  let module Exec = Umlfront_dataflow.Exec in
  let synthesized = Core.Flow.synthesize uml and laid_out = (Core.Flow.run uml).Core.Flow.caam in
  let same name read =
    if compare (read synthesized) (read laid_out) = 0 then None else Some name
  in
  List.find_map Fun.id
    [
      (if synthesized = without_positions synthesized then None
       else Some "the synthesized model has positions");
      same "the model without positions" without_positions;
      same "lint" (A.Lint.check ~uml);
      same "C" (fun m -> (Gen.Gen_threads.generate ~rounds:5 m).Gen.Gen_threads.files);
      same "Java" (Gen.Gen_java.generate ~rounds:5);
      same "SystemC" (Gen.Gen_systemc.generate ~rounds:5);
      same "KPN" (Gen.Gen_kpn.generate ~rounds:5);
      same "Exec.run" (fun m ->
          let o = Exec.run ~rounds:10 (Sdf.of_model m) in
          (o.Exec.traces, o.Exec.firings));
    ]

(* Only the FSM phase looks at statecharts; Validate merely warns. *)
let malformed_statecharts =
  let module Sc = U.Statechart in
  [
    Sc.make "empty" [] [];
    Sc.make "dangling" [ Sc.state "A" ] [ Sc.transition ~source:"A" ~target:"B" () ];
    Sc.make "twice" [ Sc.state "A"; Sc.state "A" ] [];
  ]

let split_tests =
  let agree name model =
    test (name ^ ": synthesis and the laid-out flow read alike") (fun () ->
        check Alcotest.(option string) name None (split_disagreement (model ())))
  in
  [
    test "synthesis rejects a malformed statechart as the flow does" (fun () ->
        List.iter
          (fun (chart : U.Statechart.t) ->
            let uml = { (CS.Crane_system.model ()) with U.Model.statecharts = [ chart ] } in
            let rejection f =
              match f uml with _ -> None | exception Invalid_argument m -> Some m
            in
            let name = chart.U.Statechart.sc_name in
            let flow = rejection Core.Flow.run in
            check Alcotest.bool (name ^ ": the flow rejects it") true (flow <> None);
            check Alcotest.(option string) name flow (rejection Core.Flow.synthesize))
          malformed_statecharts);
    agree "crane" CS.Crane_system.model;
    agree "synthetic" CS.Synthetic_system.model;
    agree "elevator" CS.Elevator_system.model;
    agree "mjpeg" CS.Mjpeg_system.model;
    (* Drawn as "flow emits a lint-clean CAAM" draws its workloads. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"synthesis and the laid-out flow read alike on 100 random workloads"
         ~count:100
         (QCheck.make
            ~print:(fun (wide, seed, a, b) ->
              Printf.sprintf "(%s, seed %d, %d, %d)"
                (if wide then "wide" else "pipeline")
                seed a b)
            QCheck.Gen.(quad bool (0 -- 1000) (2 -- 6) (0 -- 3)))
         (fun (wide, seed, a, b) ->
           let uml =
             if wide then CS.Random_models.wide ~seed ~branches:(1 + b) ~depth:(a - 1)
             else CS.Random_models.pipeline ~seed ~threads:a ~extra_edges:b
           in
           split_disagreement uml = None));
  ]

(* --- every bundled case study is lint-clean ------------------------- *)

let case_study_tests =
  let clean name model =
    test (name ^ " case study is lint-clean") (fun () ->
        let uml = model () in
        let out = Core.Flow.run uml in
        silent_on name (A.Lint.check ~uml out.Core.Flow.caam))
  in
  [
    clean "didactic" CS.Didactic.model;
    clean "crane" CS.Crane_system.model;
    clean "synthetic" CS.Synthetic_system.model;
    clean "elevator" CS.Elevator_system.model;
    clean "mjpeg" CS.Mjpeg_system.model;
  ]

(* --- per-rule counters in the metrics registry ---------------------- *)

let counter_value name =
  match
    List.find_opt
      (fun (s : Obs.Metrics.stat) -> String.equal s.Obs.Metrics.s_name name)
      (Obs.Metrics.snapshot ())
  with
  | Some s -> s.Obs.Metrics.s_count
  | None -> 0

let metrics_tests =
  [
    test "lint bumps per-rule counters" (fun () ->
        let before = counter_value "lint.UF104" in
        let runs_before = counter_value "lint.runs" in
        ignore (A.Lint.check_caam (mut_flip_protocol (crane_caam ())));
        check Alcotest.bool "lint.UF104 counted" true (counter_value "lint.UF104" > before);
        check Alcotest.bool "lint.runs counted" true (counter_value "lint.runs" > runs_before));
  ]

(* --- golden files: promoted via dune (action (diff ...)) ------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The byte-for-byte pinning itself moved to dune rules: test/dune
   regenerates every report with golden_gen.exe and (diff)s it against
   test/golden/, so an accepted format change is a `dune promote`, not
   a hand edit.  What stays here: the generator must know exactly the
   files dune pins (no orphaned goldens), and a stale golden must
   actually differ from fresh output so the diff has teeth.  The
   [cli.*] goldens are the CLI's own stdout: test/dune writes each
   through bin/umlfront.exe as [cli.*.gen] next to this test. *)
let golden_tests =
  [
    test "every committed golden file has a generator (and vice versa)" (fun () ->
        let committed =
          Sys.readdir "golden" |> Array.to_list |> List.sort String.compare
        in
        let cli, generated =
          List.partition (String.starts_with ~prefix:"cli.") committed
        in
        check
          Alcotest.(list string)
          "golden_gen covers golden/"
          (List.sort String.compare Lint_mutants.golden_names)
          generated;
        check Alcotest.bool "CLI goldens exist" true (cli <> []);
        List.iter
          (fun name ->
            check Alcotest.bool (name ^ " has a CLI rule") true
              (Sys.file_exists (name ^ ".gen")))
          cli);
    test "golden reports are deterministic" (fun () ->
        List.iter
          (fun name ->
            check Alcotest.string name
              (Lint_mutants.render_golden name)
              (Lint_mutants.render_golden name))
          Lint_mutants.golden_names);
    test "a stale golden fails the comparison" (fun () ->
        (* Simulate drift: a tampered copy of each committed golden must
           differ from the freshly rendered report, which is precisely
           what makes the dune diff rules fail on staleness. *)
        List.iter
          (fun name ->
            let fresh = Lint_mutants.render_golden name in
            let committed = read_file (Filename.concat "golden" name) in
            check Alcotest.string (name ^ " is current") committed fresh;
            let tampered = committed ^ "tampered\n" in
            check Alcotest.bool
              (name ^ " tampering detected")
              false
              (String.equal fresh tampered))
          Lint_mutants.golden_names);
  ]

(* --- the CLI: lint/stats flag handling and exit codes ---------------- *)

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

let save_model uml =
  let file = Filename.temp_file "umlfront_lint" ".xml" in
  U.Xmi.save uml file;
  file

let cli_tests =
  [
    test "lint: clean model exits 0" (fun () ->
        let file = save_model (crane ()) in
        let code, out, _ = run_cli ("lint " ^ Filename.quote file) in
        Sys.remove file;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "reports clean" true (contains out "clean"));
    test "lint: error model exits 1 and names the rule" (fun () ->
        let file = save_model (mut_node_without_saengine (crane ())) in
        let code, out, _ = run_cli ("lint " ^ Filename.quote file) in
        Sys.remove file;
        check Alcotest.int "exit" 1 code;
        check Alcotest.bool "names UF005" true (contains out "UF005"));
    test "lint: --deny warnings promotes warnings to failure" (fun () ->
        let file = save_model (mut_io_read_no_result (crane ())) in
        let lax, out, _ = run_cli ("lint " ^ Filename.quote file) in
        let strict, _, _ = run_cli ("lint --deny warnings " ^ Filename.quote file) in
        Sys.remove file;
        check Alcotest.int "without --deny" 0 lax;
        check Alcotest.bool "names UF004" true (contains out "UF004");
        check Alcotest.int "with --deny warnings" 1 strict);
    test "lint: --format json emits one object per file" (fun () ->
        let file = save_model (crane ()) in
        let code, out, _ = run_cli ("lint --format json " ^ Filename.quote file) in
        Sys.remove file;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "is a json list" true (String.length out > 0 && out.[0] = '[');
        check Alcotest.bool "has errors field" true (contains out "\"errors\":0"));
    test "lint and stats reject unknown flags the same way (exit 124)" (fun () ->
        let lint_code, _, lint_err = run_cli "lint --no-such-flag model.xml" in
        let stats_code, _, stats_err = run_cli "stats --no-such-flag model.xml" in
        check Alcotest.int "lint exit" 124 lint_code;
        check Alcotest.int "stats exit" 124 stats_code;
        check Alcotest.bool "lint message" true (contains lint_err "unknown option");
        check Alcotest.bool "stats message" true (contains stats_err "unknown option"));
    test "global --profile without an argument exits 124 with a hint" (fun () ->
        let code, _, err = run_cli "lint --profile" in
        check Alcotest.int "exit" 124 code;
        check Alcotest.bool "message" true (contains err "needs an argument");
        check Alcotest.bool "help pointer" true (contains err "--help"));
    test "lint: no models and no --rules is an error" (fun () ->
        let code, _, err = run_cli "lint" in
        check Alcotest.int "exit" 124 code;
        check Alcotest.bool "message" true (contains err "no MODEL.xml"));
    test "lint: --rules prints the catalog" (fun () ->
        let code, out, _ = run_cli "lint --rules" in
        check Alcotest.int "exit" 0 code;
        List.iter
          (fun (c, _, _) -> check Alcotest.bool c true (contains out c))
          A.Lint.rules);
  ]

let suite =
  [
    ("analysis: uml mutations", uml_mutation_tests);
    ("analysis: caam mutations", caam_mutation_tests);
    ("analysis: sdf rules", sdf_tests);
    ("analysis: case studies", case_study_tests @ [ qcheck_flow_lint_clean ]);
    ("analysis: synthesis", split_tests);
    ("analysis: metrics", metrics_tests);
    ("analysis: golden reports", golden_tests);
    ("analysis: cli", cli_tests);
  ]
