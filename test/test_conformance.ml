(* Differential conformance harness: every backend against the SDF
   reference executor, plus the shrinker and the fuzz loop.  The broken
   backend is simulated with the test-only [corrupt] hook so the suite
   can prove disagreements are caught and minimized without actually
   breaking a generator. *)

module Conform = Umlfront_conformance.Conform
module Shrink = Umlfront_conformance.Shrink
module Fuzz = Umlfront_conformance.Fuzz
module Core = Umlfront_core
module CS = Umlfront_casestudies
module Model = Umlfront_simulink.Model
module S = Umlfront_simulink.System
module Obs = Umlfront_obs

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains

let case_studies =
  [
    ("crane", CS.Crane_system.model);
    ("synthetic", CS.Synthetic_system.model);
    ("elevator", CS.Elevator_system.model);
    ("mjpeg", CS.Mjpeg_system.model);
    ("didactic", CS.Didactic.model);
  ]

let caam_of model = (Core.Flow.run (model ())).Core.Flow.caam
let crane_caam () = caam_of CS.Crane_system.model

(* Adding 1.0 to every sample diverges immediately under every
   tolerance the engine uses. *)
let break_kpn = (Conform.Kpn, fun v -> v +. 1.0)

let counter name =
  match
    List.find_opt
      (fun (s : Obs.Metrics.stat) -> String.equal s.Obs.Metrics.s_name name)
      (Obs.Metrics.snapshot ())
  with
  | Some s -> s.Obs.Metrics.s_count
  | None -> 0

let engine_tests =
  [
    test "every bundled case study agrees on every backend" (fun () ->
        List.iter
          (fun (name, model) ->
            let report = Conform.check ~rounds:6 (caam_of model) in
            check Alcotest.bool (name ^ " agrees") true (Conform.agree report);
            check Alcotest.int
              (name ^ " verdict per backend")
              (List.length Conform.all_backends)
              (List.length report.Conform.verdicts);
            (* In-process backends must genuinely agree, not merely be
               unavailable; only C may bail out (no compiler). *)
            List.iter
              (fun b ->
                match List.assoc b report.Conform.verdicts with
                | Conform.Agree -> ()
                | Conform.Disagree _ | Conform.Backend_unavailable _ ->
                    Alcotest.fail
                      (Printf.sprintf "%s: backend %s did not agree" name
                         (Conform.backend_name b)))
              [
                Conform.Seq;
                Conform.Compiled_exec;
                Conform.Kpn;
                Conform.Kpn_src;
              ])
          case_studies);
    test "a corrupted backend is caught with round and port" (fun () ->
        let report =
          Conform.check
            ~backends:[ Conform.Seq; Conform.Kpn ]
            ~rounds:4 ~corrupt:break_kpn (crane_caam ())
        in
        check Alcotest.bool "not agree" false (Conform.agree report);
        check Alcotest.bool "seq unaffected" true
          (List.assoc Conform.Seq report.Conform.verdicts = Conform.Agree);
        match Conform.disagreements report with
        | [ (Conform.Kpn, Conform.Trace { round; port; expected; actual; provenance }) ]
          -> (
            check Alcotest.int "earliest round" 0 round;
            check Alcotest.bool "a real output port" true
              (List.mem port report.Conform.outputs);
            check (Alcotest.float 1e-9) "offset visible" 1.0 (actual -. expected);
            (* The divergent token's causal identity: producing block,
               firing index, channel — the tentpole acceptance check. *)
            match provenance with
            | None -> Alcotest.fail "expected token provenance on the divergence"
            | Some p ->
                check Alcotest.bool "provenance names a block" true
                  (p.Conform.prov_block <> "");
                check Alcotest.int "firing = round + 1" (round + 1)
                  p.Conform.prov_firing;
                check Alcotest.bool "channel names the port" true
                  (let ch = p.Conform.prov_channel in
                   String.length ch > String.length port
                   &&
                   let tail =
                     String.sub ch
                       (String.length ch - String.length port - 2)
                       (String.length port)
                   in
                   String.equal tail port))
        | _ -> Alcotest.fail "expected exactly one Kpn trace disagreement");
    test "corrupting only one backend leaves the others green" (fun () ->
        let report = Conform.check ~rounds:4 ~corrupt:break_kpn (crane_caam ()) in
        List.iter
          (fun (b, v) ->
            match (b, v) with
            | Conform.Kpn, Conform.Disagree _ -> ()
            | Conform.Kpn, _ -> Alcotest.fail "kpn should disagree"
            | _, Conform.Disagree _ ->
                Alcotest.fail (Conform.backend_name b ^ " should not disagree")
            | _, (Conform.Agree | Conform.Backend_unavailable _) -> ())
          report.Conform.verdicts);
    test "backend_of_string round-trips every backend" (fun () ->
        List.iter
          (fun b ->
            match Conform.backend_of_string (Conform.backend_name b) with
            | Ok b' -> check Alcotest.bool (Conform.backend_name b) true (b = b')
            | Error msg -> Alcotest.fail msg)
          Conform.all_backends;
        check Alcotest.bool "underscore alias" true
          (Conform.backend_of_string "kpn_src" = Ok Conform.Kpn_src);
        (* par is not a backend; the error lists the valid ones. *)
        (match Conform.backend_of_string "par" with
        | Error msg ->
            List.iter
              (fun b ->
                check Alcotest.bool ("names " ^ Conform.backend_name b) true
                  (contains msg (Conform.backend_name b)))
              Conform.all_backends
        | Ok _ -> Alcotest.fail "par should be an unknown backend");
        match Conform.backend_of_string "llvm" with
        | Error msg -> check Alcotest.bool "names culprit" true (contains msg "llvm")
        | Ok _ -> Alcotest.fail "expected error");
    test "render and json carry the verdicts" (fun () ->
        let report =
          Conform.check
            ~backends:[ Conform.Seq; Conform.Kpn ]
            ~rounds:4 ~corrupt:break_kpn (crane_caam ())
        in
        let text = Conform.render report in
        check Alcotest.bool "model name" true (contains text "crane");
        check Alcotest.bool "agree line" true (contains text "seq      agree");
        check Alcotest.bool "disagree line" true (contains text "DISAGREE");
        check Alcotest.bool "divergence detail" true (contains text "first divergence");
        let json = Obs.Json.to_string (Conform.to_json report) in
        List.iter
          (fun needle -> check Alcotest.bool needle true (contains json needle))
          [
            "\"model\"";
            "\"rounds\"";
            "\"kpn\"";
            "\"disagree\"";
            "\"trace\"";
            "\"round\"";
          ]);
    test "compiled backend without a pool spawns no domains" (fun () ->
        (* Pool.create sets pool.domains in the current registry, so a
           throwaway pool inside check would leave it in [ctx]. *)
        let ctx = Obs.Context.create () in
        let report =
          Conform.check ~ctx ~backends:[ Conform.Compiled_exec ] ~rounds:4
            (crane_caam ())
        in
        check Alcotest.bool "compiled agrees" true (Conform.agree report);
        let names =
          List.map
            (fun (s : Obs.Metrics.stat) -> s.Obs.Metrics.s_name)
            (Obs.Context.with_current ctx Obs.Metrics.snapshot)
        in
        check Alcotest.bool "the check ran in ctx" true (List.mem "conform.checks" names);
        check Alcotest.bool "no pool.domains gauge" false (List.mem "pool.domains" names));
    test "conform metrics count checks and verdicts" (fun () ->
        let before = counter "conform.checks" in
        let disagree_before = counter "conform.disagree" in
        ignore
          (Conform.check
             ~backends:[ Conform.Seq; Conform.Kpn ]
             ~rounds:3 ~corrupt:break_kpn (crane_caam ()));
        check Alcotest.int "one more check" (before + 1) (counter "conform.checks");
        check Alcotest.int "one more disagree" (disagree_before + 1)
          (counter "conform.disagree"));
  ]

(* The disagreement used by the shrinker tests: the corrupt hook makes
   the Kpn backend wrong on *any* model that still has an output, so
   the shrinker is free to delete almost everything. *)
let kpn_repro m =
  not
    (Conform.agree
       (Conform.check ~backends:[ Conform.Kpn ] ~rounds:3 ~corrupt:break_kpn m))

let shrink_tests =
  [
    test "shrinker reduces a crane counterexample to <= 5 blocks" (fun () ->
        let caam = crane_caam () in
        check Alcotest.bool "caam starts big" true (S.total_blocks caam.Model.root > 5);
        check Alcotest.bool "disagreement reproduces" true (kpn_repro caam);
        let minimized, stats = Shrink.minimize ~repro:kpn_repro caam in
        check Alcotest.bool "still reproduces" true (kpn_repro minimized);
        check Alcotest.int "initial blocks recorded"
          (S.total_blocks caam.Model.root)
          stats.Shrink.initial_blocks;
        check Alcotest.int "final blocks recorded"
          (S.total_blocks minimized.Model.root)
          stats.Shrink.final_blocks;
        check Alcotest.bool
          (Printf.sprintf "minimal counterexample has %d <= 5 blocks"
             stats.Shrink.final_blocks)
          true
          (stats.Shrink.final_blocks <= 5);
        check Alcotest.bool "accepted within attempts" true
          (stats.Shrink.accepted <= stats.Shrink.attempts));
    test "shrinker keeps a non-reproducing model intact" (fun () ->
        let caam = crane_caam () in
        let same, stats = Shrink.minimize ~repro:(fun _ -> false) caam in
        check Alcotest.int "no deletion kept" 0 stats.Shrink.accepted;
        check Alcotest.int "untouched"
          (S.total_blocks caam.Model.root)
          (S.total_blocks same.Model.root));
    test "attempt budget bounds the repro calls" (fun () ->
        let calls = ref 0 in
        let repro m =
          incr calls;
          kpn_repro m
        in
        let _, stats = Shrink.minimize ~max_attempts:7 ~repro (crane_caam ()) in
        check Alcotest.int "stats count the calls" !calls stats.Shrink.attempts;
        check Alcotest.bool "budget respected" true (stats.Shrink.attempts <= 7));
  ]

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path)
  else Sys.remove path

let fast_backends =
  [ Conform.Seq; Conform.Compiled_exec; Conform.Kpn; Conform.Kpn_src ]

let fuzz_tests =
  [
    test "seeded fuzzing is green and deterministic" (fun () ->
        let run () =
          Fuzz.run ~backends:fast_backends ~rounds:4 ~shrink:false ~seed:11 ~count:8 ()
        in
        let a = run () in
        check Alcotest.int "all generated" 8 (a.Fuzz.checked + a.Fuzz.skipped);
        check Alcotest.int "no disagreement" 0 (List.length a.Fuzz.failures);
        check Alcotest.bool "most cases survive the lint gate" true
          (a.Fuzz.checked >= a.Fuzz.skipped);
        let b = run () in
        check Alcotest.int "checked is reproducible" a.Fuzz.checked b.Fuzz.checked;
        check Alcotest.int "skipped is reproducible" a.Fuzz.skipped b.Fuzz.skipped);
    test "fuzzing a corrupted backend shrinks and writes the corpus" (fun () ->
        let corpus = temp_dir "umlfront_fuzz_corpus" in
        Fun.protect ~finally:(fun () -> rm_rf corpus) @@ fun () ->
        let outcome =
          Fuzz.run
            ~backends:[ Conform.Seq; Conform.Kpn ]
            ~rounds:3 ~corrupt:break_kpn ~corpus ~seed:11 ~count:2 ()
        in
        check Alcotest.bool "failures found" true (outcome.Fuzz.failures <> []);
        check Alcotest.int "every checked case fails" outcome.Fuzz.checked
          (List.length outcome.Fuzz.failures);
        List.iter
          (fun (cx : Fuzz.counterexample) ->
            (match cx.Fuzz.shrink_stats with
            | None -> Alcotest.fail "expected shrink stats"
            | Some st ->
                check Alcotest.bool "shrunk to <= 5 blocks" true
                  (st.Shrink.final_blocks <= 5);
                check Alcotest.bool "not grown" true
                  (st.Shrink.final_blocks <= st.Shrink.initial_blocks));
            match cx.Fuzz.corpus_dir with
            | None -> Alcotest.fail "expected a corpus directory"
            | Some dir ->
                List.iter
                  (fun f ->
                    check Alcotest.bool
                      (Filename.concat dir f)
                      true
                      (Sys.file_exists (Filename.concat dir f)))
                  [ "original.xmi"; "minimized.mdl"; "repro.txt" ];
                (* repro.txt names the exact commands. *)
                let repro =
                  In_channel.with_open_bin (Filename.concat dir "repro.txt")
                    In_channel.input_all
                in
                check Alcotest.bool "conform command" true
                  (contains repro "umlfront conform");
                check Alcotest.bool "fuzz command" true (contains repro "umlfront fuzz");
                check Alcotest.bool "seed recorded" true (contains repro "--seed 11"))
          outcome.Fuzz.failures);
    test "minimized counterexample re-parses and still disagrees" (fun () ->
        let corpus = temp_dir "umlfront_fuzz_corpus2" in
        Fun.protect ~finally:(fun () -> rm_rf corpus) @@ fun () ->
        let outcome =
          Fuzz.run
            ~backends:[ Conform.Seq; Conform.Kpn ]
            ~rounds:3 ~corrupt:break_kpn ~corpus ~seed:5 ~count:1 ()
        in
        match outcome.Fuzz.failures with
        | { Fuzz.corpus_dir = Some dir; _ } :: _ ->
            let reparsed =
              Umlfront_simulink.Mdl_parser.parse_file (Filename.concat dir "minimized.mdl")
            in
            check Alcotest.bool "reproduces from disk" true (kpn_repro reparsed)
        | _ -> Alcotest.fail "expected a failure with a corpus directory");
  ]

let suite =
  [
    ("conformance:engine", engine_tests);
    ("conformance:shrink", shrink_tests);
    ("conformance:fuzz", fuzz_tests);
  ]
