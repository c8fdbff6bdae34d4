module F = Umlfront_fsm.Fsm
module Flatten = Umlfront_fsm.Flatten
module Minimize = Umlfront_fsm.Minimize
module Codegen_c = Umlfront_fsm.Codegen_c
module Dot = Umlfront_fsm.Dot
module Sc = Umlfront_uml.Statechart

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let tr ?guard ?(actions = []) src event dst =
  { F.t_src = src; t_event = event; t_guard = guard; t_actions = actions; t_dst = dst }

let toggle =
  F.make ~name:"toggle" ~initial:"off" ~states:[ "off"; "on" ]
    [ tr "off" "press" "on" ~actions:[ "light_on" ];
      tr "on" "press" "off" ~actions:[ "light_off" ] ]

let fsm_tests =
  [
    test "undeclared initial rejected" (fun () ->
        match F.make ~name:"x" ~initial:"ghost" ~states:[ "a" ] [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "undeclared transition endpoint rejected" (fun () ->
        match F.make ~name:"x" ~initial:"a" ~states:[ "a" ] [ tr "a" "e" "b" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "events sorted distinct" (fun () ->
        check Alcotest.(list string) "events" [ "press" ] (F.events toggle));
    test "deterministic detection" (fun () ->
        check Alcotest.bool "toggle det" true (F.is_deterministic toggle);
        let nondet =
          F.make ~name:"n" ~initial:"a" ~states:[ "a"; "b" ]
            [ tr "a" "e" "b"; tr "a" "e" "a" ]
        in
        check Alcotest.bool "nondet" false (F.is_deterministic nondet));
    test "guarded transitions do not break determinism check" (fun () ->
        let guarded =
          F.make ~name:"g" ~initial:"a" ~states:[ "a"; "b" ]
            [ tr ~guard:"x" "a" "e" "b"; tr "a" "e" "a" ]
        in
        check Alcotest.bool "det" true (F.is_deterministic guarded));
    test "step follows transition and emits actions" (fun () ->
        match F.step toggle ~state:"off" ~event:"press" with
        | Some s ->
            check Alcotest.string "after" "on" s.F.after;
            check Alcotest.(list string) "actions" [ "light_on" ] s.F.actions
        | None -> Alcotest.fail "expected a step");
    test "step on unhandled event is None" (fun () ->
        check Alcotest.bool "none" true (F.step toggle ~state:"off" ~event:"kick" = None));
    test "guard blocks transition" (fun () ->
        let m =
          F.make ~name:"g" ~initial:"a" ~states:[ "a"; "b" ]
            [ tr ~guard:"ok" "a" "e" "b" ]
        in
        check Alcotest.bool "blocked" true
          (F.step ~guard_eval:(fun _ -> false) m ~state:"a" ~event:"e" = None);
        check Alcotest.bool "allowed" true
          (F.step ~guard_eval:(fun _ -> true) m ~state:"a" ~event:"e" <> None));
    test "run skips unhandled events" (fun () ->
        let steps = F.run toggle [ "press"; "kick"; "press" ] in
        check Alcotest.int "two steps" 2 (List.length steps);
        check Alcotest.string "back to off" "off" (F.final_state toggle [ "press"; "kick"; "press" ]));
    test "reachability pruning" (fun () ->
        let m =
          F.make ~name:"p" ~initial:"a" ~states:[ "a"; "b"; "island" ]
            [ tr "a" "e" "b"; tr "island" "e" "a" ]
        in
        let pruned = F.prune_unreachable m in
        check Alcotest.(list string) "states" [ "a"; "b" ] pruned.F.states;
        check Alcotest.int "transitions" 1 (List.length pruned.F.transitions));
  ]

let minimize_tests =
  [
    test "merges behaviourally identical states" (fun () ->
        (* b and c both go to d on e with the same action. *)
        let m =
          F.make ~name:"m" ~initial:"a" ~states:[ "a"; "b"; "c"; "d" ]
            [
              tr "a" "x" "b" ~actions:[ "go" ];
              tr "a" "y" "c" ~actions:[ "go" ];
              tr "b" "e" "d" ~actions:[ "fin" ];
              tr "c" "e" "d" ~actions:[ "fin" ];
            ]
        in
        let minimized = Minimize.run m in
        check Alcotest.int "3 states" 3 (List.length minimized.F.states));
    test "does not merge states with different actions" (fun () ->
        let m =
          F.make ~name:"m" ~initial:"a" ~states:[ "a"; "b"; "c" ]
            [
              tr "a" "x" "b";
              tr "a" "y" "c";
              tr "b" "e" "a" ~actions:[ "p" ];
              tr "c" "e" "a" ~actions:[ "q" ];
            ]
        in
        check Alcotest.int "unchanged" 3 (List.length (Minimize.run m).F.states));
    test "respects finality" (fun () ->
        let m =
          F.make ~name:"m" ~initial:"a" ~states:[ "a"; "b" ] ~finals:[ "b" ]
            [ tr "a" "e" "b" ]
        in
        (* a and b differ in finality, so they cannot merge *)
        check Alcotest.int "2 classes" 2 (List.length (Minimize.equivalent_classes m)));
    test "minimization preserves behaviour (property)" (fun () ->
        let traces =
          [ []; [ "press" ]; [ "press"; "press" ]; [ "press"; "kick"; "press" ] ]
        in
        check Alcotest.bool "equal" true (F.simulate_equal toggle (Minimize.run toggle) traces));
  ]

(* Hierarchical chart:
   init -> idle; composite "active" with sub-states fast/slow.
   start: idle -> active (enters fast via the inner initial)
   stop: active -> idle (from any inner state)
   shift: fast -> slow *)
let hier_chart =
  Sc.make "machine"
    [
      Sc.state ~kind:Sc.Initial "init";
      Sc.state ~entry:"enter_idle" "idle";
      Sc.state ~entry:"enter_active" ~exit:"leave_active" "active"
        ~children:
          [
            Sc.state ~kind:Sc.Initial "a_init";
            Sc.state ~entry:"enter_fast" "fast";
            Sc.state ~entry:"enter_slow" ~exit:"leave_slow" "slow";
          ];
    ]
    [
      Sc.transition ~source:"init" ~target:"idle" ();
      Sc.transition ~source:"a_init" ~target:"fast" ();
      Sc.transition ~trigger:"start" ~effect:"spin_up" ~source:"idle" ~target:"active" ();
      Sc.transition ~trigger:"stop" ~source:"active" ~target:"idle" ();
      Sc.transition ~trigger:"shift" ~source:"fast" ~target:"slow" ();
    ]

let flatten_tests =
  [
    test "initial resolves to a leaf" (fun () ->
        let fsm = Flatten.run hier_chart in
        check Alcotest.string "initial" "idle" fsm.F.initial);
    test "leaf states only" (fun () ->
        let fsm = Flatten.run hier_chart in
        check Alcotest.(list string) "states" [ "fast"; "idle"; "slow" ] fsm.F.states);
    test "transition into composite targets its default entry" (fun () ->
        let fsm = Flatten.run hier_chart in
        match F.step fsm ~state:"idle" ~event:"start" with
        | Some s ->
            check Alcotest.string "fast" "fast" s.F.after;
            check Alcotest.(list string) "actions"
              [ "spin_up"; "enter_active"; "enter_fast" ]
              s.F.actions
        | None -> Alcotest.fail "expected step");
    test "transition out of composite replicated per leaf" (fun () ->
        let fsm = Flatten.run hier_chart in
        let stops =
          List.filter (fun (t : F.transition) -> t.F.t_event = "stop") fsm.F.transitions
        in
        check Alcotest.int "two" 2 (List.length stops));
    test "exit actions fire innermost first" (fun () ->
        let fsm = Flatten.run hier_chart in
        match F.step fsm ~state:"slow" ~event:"stop" with
        | Some s ->
            check Alcotest.(list string) "actions"
              [ "leave_slow"; "leave_active"; "enter_idle" ]
              s.F.actions
        | None -> Alcotest.fail "expected step");
    test "inner transition does not leave composite" (fun () ->
        let fsm = Flatten.run hier_chart in
        match F.step fsm ~state:"fast" ~event:"shift" with
        | Some s ->
            check Alcotest.string "slow" "slow" s.F.after;
            check Alcotest.(list string) "only inner entry" [ "enter_slow" ] s.F.actions
        | None -> Alcotest.fail "expected step");
    test "self transition exits and re-enters" (fun () ->
        let chart =
          Sc.make "s"
            [ Sc.state ~kind:Sc.Initial "i"; Sc.state ~entry:"in_a" ~exit:"out_a" "a" ]
            [
              Sc.transition ~source:"i" ~target:"a" ();
              Sc.transition ~trigger:"tick" ~source:"a" ~target:"a" ();
            ]
        in
        match F.step (Flatten.run chart) ~state:"a" ~event:"tick" with
        | Some s -> check Alcotest.(list string) "actions" [ "out_a"; "in_a" ] s.F.actions
        | None -> Alcotest.fail "expected step");
    test "duplicate state names rejected" (fun () ->
        let chart = Sc.make "d" [ Sc.state "a"; Sc.state "a" ] [] in
        match Flatten.run chart with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "final leaves become FSM finals" (fun () ->
        let chart =
          Sc.make "f"
            [ Sc.state ~kind:Sc.Initial "i"; Sc.state "a"; Sc.state ~kind:Sc.Final "done_" ]
            [
              Sc.transition ~source:"i" ~target:"a" ();
              Sc.transition ~trigger:"end" ~source:"a" ~target:"done_" ();
            ]
        in
        check Alcotest.(list string) "finals" [ "done_" ] (Flatten.run chart).F.finals);
  ]

(* Media player: composite "playing" remembers its track across a
   pause when marked with shallow history. *)
let player ~history =
  let history = if history then Sc.Shallow else Sc.No_history in
  Sc.make "player"
    [
      Sc.state ~kind:Sc.Initial "init";
      Sc.state ~entry:"mute" "paused";
      Sc.state ~entry:"unmute" ~history "playing"
        ~children:
          [
            Sc.state ~kind:Sc.Initial "p_init";
            Sc.state ~entry:"playA" "trackA";
            Sc.state ~entry:"playB" "trackB";
          ];
    ]
    [
      Sc.transition ~source:"init" ~target:"playing" ();
      Sc.transition ~source:"p_init" ~target:"trackA" ();
      Sc.transition ~trigger:"next" ~source:"trackA" ~target:"trackB" ();
      Sc.transition ~trigger:"next" ~source:"trackB" ~target:"trackA" ();
      Sc.transition ~trigger:"pause" ~source:"playing" ~target:"paused" ();
      Sc.transition ~trigger:"resume" ~source:"paused" ~target:"playing" ();
    ]

let history_tests =
  [
    test "without history, resume restarts at the default track" (fun () ->
        let fsm = Flatten.run (player ~history:false) in
        let final = F.final_state fsm [ "next"; "pause"; "resume" ] in
        check Alcotest.string "trackA" "trackA" final);
    test "with history, resume returns to the remembered track" (fun () ->
        let fsm = Flatten.run (player ~history:true) in
        let final = F.final_state fsm [ "next"; "pause"; "resume" ] in
        check Alcotest.bool "trackB resumed" true
          (Astring_contains.contains final "trackB");
        check Alcotest.bool "memory in name" true
          (Astring_contains.contains final "playing=trackB"));
    test "history entry actions still fire outer-to-inner" (fun () ->
        let fsm = Flatten.run (player ~history:true) in
        let steps = F.run fsm [ "next"; "pause"; "resume" ] in
        match List.rev steps with
        | last :: _ ->
            check Alcotest.(list string) "resume actions" [ "unmute"; "playB" ]
              last.F.actions
        | [] -> Alcotest.fail "no steps");
    test "history product stays deterministic and finite" (fun () ->
        let fsm = Flatten.run (player ~history:true) in
        check Alcotest.bool "det" true (F.is_deterministic fsm);
        (* leaves {paused, trackA, trackB} x memory {A, B} reachable
           subset only *)
        check Alcotest.bool "bounded" true (List.length fsm.F.states <= 6));
    test "history survives the XMI round-trip" (fun () ->
        let uml =
          Umlfront_uml.Model.make ~statecharts:[ player ~history:true ] "m"
        in
        let uml' = Umlfront_uml.Xmi.of_string (Umlfront_uml.Xmi.to_string uml) in
        match uml'.Umlfront_uml.Model.statecharts with
        | [ chart ] ->
            let fsm = Flatten.run chart in
            check Alcotest.bool "still history" true
              (Astring_contains.contains
                 (F.final_state fsm [ "next"; "pause"; "resume" ])
                 "trackB")
        | _ -> Alcotest.fail "chart lost");
    test "minimization applies to history products" (fun () ->
        let fsm = Flatten.run (player ~history:true) in
        let minimized = Minimize.run fsm in
        let traces =
          [ [ "next"; "pause"; "resume" ]; [ "pause"; "resume"; "next" ]; [ "next"; "next" ] ]
        in
        check Alcotest.bool "equivalent" true (F.simulate_equal fsm minimized traces));
  ]

(* Deep vs shallow: "playing" contains a nested composite "album" with
   two tracks; after pausing inside track2, deep history resumes
   track2, shallow restarts the album at its default track1. *)
let nested_player history =
  Sc.make "deepplayer"
    [
      Sc.state ~kind:Sc.Initial "init";
      Sc.state "paused";
      Sc.state ~history "playing"
        ~children:
          [
            Sc.state ~kind:Sc.Initial "p_init";
            Sc.state "album"
              ~children:
                [
                  Sc.state ~kind:Sc.Initial "a_init";
                  Sc.state "track1";
                  Sc.state "track2";
                ];
          ];
    ]
    [
      Sc.transition ~source:"init" ~target:"playing" ();
      Sc.transition ~source:"p_init" ~target:"album" ();
      Sc.transition ~source:"a_init" ~target:"track1" ();
      Sc.transition ~trigger:"next" ~source:"track1" ~target:"track2" ();
      Sc.transition ~trigger:"pause" ~source:"playing" ~target:"paused" ();
      Sc.transition ~trigger:"resume" ~source:"paused" ~target:"playing" ();
    ]

let deep_history_tests =
  [
    test "deep history resumes the exact leaf" (fun () ->
        let fsm = Flatten.run (nested_player Sc.Deep) in
        let final = F.final_state fsm [ "next"; "pause"; "resume" ] in
        check Alcotest.bool "track2" true (Astring_contains.contains final "track2"));
    test "shallow history restarts the nested composite" (fun () ->
        (* shallow remembers only the direct child ("album"); inside it
           the default entry applies again *)
        let fsm = Flatten.run (nested_player Sc.Shallow) in
        let final = F.final_state fsm [ "next"; "pause"; "resume" ] in
        check Alcotest.bool "track1" true (Astring_contains.contains final "track1"));
    test "no history restarts everything" (fun () ->
        let fsm = Flatten.run (nested_player Sc.No_history) in
        let final = F.final_state fsm [ "next"; "pause"; "resume" ] in
        check Alcotest.string "track1" "track1" final);
    test "deep history survives XMI" (fun () ->
        let uml =
          Umlfront_uml.Model.make ~statecharts:[ nested_player Sc.Deep ] "m"
        in
        let uml' = Umlfront_uml.Xmi.of_string (Umlfront_uml.Xmi.to_string uml) in
        match uml'.Umlfront_uml.Model.statecharts with
        | [ chart ] ->
            check Alcotest.bool "still deep" true
              (Astring_contains.contains
                 (F.final_state (Flatten.run chart) [ "next"; "pause"; "resume" ])
                 "track2")
        | _ -> Alcotest.fail "chart lost");
  ]

(* Writes the FSM's C and [stub] (which sees its header), compiles both
   with cc and returns the program's exit code; 125 if cc fails. *)
let compile_and_run fsm stub =
  let dir = Filename.temp_file "fsmgen" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Codegen_c.save fsm ~dir;
  let name = fsm.F.fsm_name in
  let oc = open_out (Filename.concat dir "stub.c") in
  Printf.fprintf oc "#include \"%s.h\"\n%s" name stub;
  close_out oc;
  let bin = Filename.concat dir "t" in
  let cc =
    Printf.sprintf "cc -o %s %s %s 2>/dev/null" bin
      (Filename.concat dir (name ^ ".c"))
      (Filename.concat dir "stub.c")
  in
  if Sys.command cc <> 0 then 125 else Sys.command bin

let codegen_tests =
  [
    test "header declares enums and step" (fun () ->
        let h = Codegen_c.header toggle in
        check Alcotest.bool "state enum" true
          (String.length h > 0
          && Astring_contains.contains h "TOGGLE_ST_OFF"
          && Astring_contains.contains h "TOGGLE_EV_PRESS"
          && Astring_contains.contains h "toggle_step"));
    test "source references actions" (fun () ->
        let s = Codegen_c.source toggle in
        check Alcotest.bool "action call" true
          (Astring_contains.contains s "toggle_action_light_on();"));
    test "generated C compiles" (fun () ->
        let dir = Filename.temp_file "fsmgen" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        Codegen_c.save toggle ~dir;
        let stub = Filename.concat dir "stub.c" in
        let oc = open_out stub in
        output_string oc
          "#include \"toggle.h\"\n\
           void toggle_action_light_on(void) {}\n\
           void toggle_action_light_off(void) {}\n\
           int main(void) { return toggle_step(toggle_initial(), TOGGLE_EV_PRESS) == TOGGLE_ST_ON ? 0 : 1; }\n";
        close_out oc;
        let bin = Filename.concat dir "t" in
        let cmd =
          Printf.sprintf "gcc -o %s %s %s 2>/dev/null" bin
            (Filename.concat dir "toggle.c")
            stub
        in
        check Alcotest.int "gcc ok" 0 (Sys.command cmd);
        check Alcotest.int "runs & transitions" 0 (Sys.command bin));
    test "callbacks that sanitize alike compile and step apart" (fun () ->
        (* Opaque guards "x > 1" and "x < 1" both sanitize to x___1, and
           actions "beep.hi" and "beep_hi" to beep_hi; the stubs tell
           each pair apart. *)
        let ctl =
          F.make ~name:"ctl" ~initial:"off" ~states:[ "off"; "hi"; "lo" ]
            [ tr "off" "go" "hi" ~guard:"x > 1" ~actions:[ "beep.hi" ];
              tr "off" "go" "lo" ~guard:"x < 1" ~actions:[ "beep_hi" ] ]
        in
        check Alcotest.int "cc ok, steps through both guards" 0
          (compile_and_run ctl
             "double x;\n\
              static int beeps;\n\
              bool ctl_guard_x___1(void) { return x < 1; }\n\
              bool ctl_guard_x___1_2(void) { return x > 1; }\n\
              void ctl_action_beep_hi(void) { beeps += 1; }\n\
              void ctl_action_beep_hi_2(void) { beeps += 10; }\n\
              int main(void) {\n\
             \  x = 2;\n\
             \  if (ctl_step(ctl_initial(), CTL_EV_GO) != CTL_ST_HI || beeps != 1) return 1;\n\
             \  x = 0;\n\
             \  if (ctl_step(ctl_initial(), CTL_EV_GO) != CTL_ST_LO || beeps != 11) return 2;\n\
             \  x = 1;\n\
             \  return ctl_step(ctl_initial(), CTL_EV_GO) == CTL_ST_OFF ? 0 : 3;\n\
              }\n"));
    test "states and events that uppercase alike get distinct constants" (fun () ->
        let ctl =
          F.make ~name:"ctl" ~initial:"off" ~states:[ "off"; "On"; "ON" ]
            [ tr "off" "go" "On"; tr "On" "go" "ON"; tr "On" "reset" "off";
              tr "ON" "RESET" "off" ]
        in
        check Alcotest.int "cc ok, steps apart" 0
          (compile_and_run ctl
             "int main(void) {\n\
             \  ctl_state_t on = ctl_step(ctl_initial(), CTL_EV_GO);\n\
             \  ctl_state_t up = ctl_step(on, CTL_EV_GO);\n\
             \  if (on != CTL_ST_ON || up != CTL_ST_ON_2) return 1;\n\
             \  if (ctl_step(on, CTL_EV_RESET_2) != CTL_ST_OFF) return 2;\n\
             \  if (ctl_step(on, CTL_EV_RESET) != on) return 3;\n\
             \  return ctl_step(up, CTL_EV_RESET) == CTL_ST_OFF ? 0 : 4;\n\
              }\n"));
    test "dot export names every state" (fun () ->
        let d = Dot.to_string toggle in
        check Alcotest.bool "has states" true
          (Astring_contains.contains d "\"off\"" && Astring_contains.contains d "\"on\""));
  ]

let suite =
  [
    ("fsm:core", fsm_tests);
    ("fsm:minimize", minimize_tests);
    ("fsm:flatten", flatten_tests);
    ("fsm:history", history_tests);
    ("fsm:deep_history", deep_history_tests);
    ("fsm:codegen", codegen_tests);
  ]
