(* The guard expression language: parsing, evaluation, C translation,
   simulator integration, and compiled inline guards. *)

module E = Umlfront_fsm.Guard_expr
module F = Umlfront_fsm.Fsm
module Codegen_c = Umlfront_fsm.Codegen_c

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains

let env bindings v = Option.value (List.assoc_opt v bindings) ~default:0.0
let holds bindings text = E.eval ~env:(env bindings) (E.parse_exn text)

let parse_tests =
  [
    test "number and variable" (fun () ->
        check Alcotest.bool "num" true (E.parse "42" = Ok (E.Num 42.0));
        check Alcotest.bool "var" true (E.parse "speed" = Ok (E.Var "speed")));
    test "precedence: mul before add before cmp before and before or" (fun () ->
        let e = E.parse_exn "a + b * 2 > 10 && c || d" in
        match e with
        | E.Or (E.And (E.Cmp (E.Gt, _, _), E.Var "c"), E.Var "d") -> ()
        | _ -> Alcotest.fail ("unexpected shape: " ^ E.to_string e));
    test "parentheses override" (fun () ->
        check (Alcotest.float 1e-9) "(1+2)*3" 9.0
          (E.eval_float ~env:(env []) (E.parse_exn "(1 + 2) * 3")));
    test "unary minus and not" (fun () ->
        check (Alcotest.float 1e-9) "-4" (-4.0) (E.eval_float ~env:(env []) (E.parse_exn "-4"));
        check Alcotest.bool "!0" true (holds [] "!0");
        check Alcotest.bool "!1" false (holds [] "!1");
        check Alcotest.bool "!!1" true (holds [] "!!1"));
    test "junk rejected" (fun () ->
        List.iter
          (fun bad ->
            match E.parse bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("accepted " ^ bad))
          [ ""; "a +"; "(a"; "a b"; "&& a"; "1.2.3" ]);
    test "variables collected sorted distinct" (fun () ->
        check Alcotest.(list string) "vars" [ "a"; "b" ]
          (E.variables (E.parse_exn "a > b && a + b < 2 * a")));
    test "constants print without rounding" (fun () ->
        check Alcotest.string "seven digits" "(speed > 1234567)"
          (E.to_string (E.parse_exn "speed > 1234567"));
        check Alcotest.string "C too" "(speed > 1234567)"
          (E.to_c (E.parse_exn "speed > 1234567"));
        check Alcotest.string "seventeen digits" "0.30000000000000004"
          (E.to_string (E.Num (0.1 +. 0.2)));
        check Alcotest.string "the shortest that reads back" "0.1" (E.to_string (E.Num 0.1)));
    (* The grammar reads digits and dots only, so the constants it can
       hold are the non-negative ones that print without an exponent:
       0 and [1e-4, 1e15). *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"constants round-trip through parse (to_string _)" ~count:500
         (QCheck.make ~print:(Printf.sprintf "%h")
            QCheck.Gen.(
              oneof
                [
                  map float_of_int (int_range 0 999_999_999_999_999);
                  float_range 1e-4 1e15;
                  float_range 1e-4 1.;
                  map (fun n -> float_of_int n /. 1000.) (int_range 0 1_000_000_000);
                ]))
         (fun f ->
           let e = E.Cmp (E.Gt, E.Var "speed", E.Num f) in
           E.parse (E.to_string e) = Ok e));
  ]

let eval_tests =
  [
    test "comparisons" (fun () ->
        check Alcotest.bool "lt" true (holds [ ("x", 1.0) ] "x < 2");
        check Alcotest.bool "le" true (holds [ ("x", 2.0) ] "x <= 2");
        check Alcotest.bool "eq" true (holds [ ("x", 2.0) ] "x == 2");
        check Alcotest.bool "ne" true (holds [ ("x", 3.0) ] "x != 2");
        check Alcotest.bool "ge" false (holds [ ("x", 1.0) ] "x >= 2"));
    test "boolean connectives short behaviour" (fun () ->
        check Alcotest.bool "and" false (holds [ ("a", 1.0) ] "a && b");
        check Alcotest.bool "or" true (holds [ ("a", 1.0) ] "a || b");
        check Alcotest.bool "mix" true
          (holds [ ("mode", 2.0); ("speed", 80.0) ] "mode == 2 && speed > 50"));
    test "truthiness of bare arithmetic" (fun () ->
        check Alcotest.bool "nonzero" true (holds [ ("x", 0.5) ] "x * 2");
        check Alcotest.bool "zero" false (holds [] "3 - 3"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"to_string round-trips evaluation" ~count:200
         (QCheck.make
            ~print:(fun (a, b, c) -> Printf.sprintf "a=%f b=%f c=%f" a b c)
            QCheck.Gen.(triple (float_bound_inclusive 10.0) (float_bound_inclusive 10.0)
                          (float_bound_inclusive 10.0)))
         (fun (a, b, c) ->
           let bindings = [ ("a", a); ("b", b); ("c", c) ] in
           List.for_all
             (fun text ->
               let e = E.parse_exn text in
               let reparsed = E.parse_exn (E.to_string e) in
               E.eval ~env:(env bindings) e = E.eval ~env:(env bindings) reparsed)
             [
               "a > b"; "a + b * c > 5"; "!(a < b) || c == 0"; "a / (b + 1) <= c";
               "a - b - c"; "a && b || !c";
             ]));
  ]

let guarded_fsm =
  F.make ~name:"cruise" ~initial:"off" ~states:[ "off"; "on" ]
    [
      {
        F.t_src = "off";
        t_event = "engage";
        t_guard = Some "speed >= 40 && speed <= 120";
        t_actions = [ "hold" ];
        t_dst = "on";
      };
      { F.t_src = "on"; t_event = "brake"; t_guard = None; t_actions = []; t_dst = "off" };
    ]

let integration_tests =
  [
    test "evaluator drives the simulator" (fun () ->
        let slow = E.evaluator [ ("speed", 30.0) ] in
        let cruising = E.evaluator [ ("speed", 90.0) ] in
        check Alcotest.bool "too slow" true
          (F.step ~guard_eval:slow guarded_fsm ~state:"off" ~event:"engage" = None);
        check Alcotest.bool "engages" true
          (F.step ~guard_eval:cruising guarded_fsm ~state:"off" ~event:"engage" <> None));
    test "unparsable guards stay conservatively true" (fun () ->
        let eval = E.evaluator [] in
        check Alcotest.bool "opaque" true (eval "operator says ok"));
    test "inline guards compile to C expressions" (fun () ->
        let src = Codegen_c.source ~inline_guards:true guarded_fsm in
        let hdr = Codegen_c.header ~inline_guards:true guarded_fsm in
        check Alcotest.bool "expression" true (contains src "(speed >= 40)");
        check Alcotest.bool "extern var" true (contains hdr "extern double speed;");
        check Alcotest.bool "no callback" false (contains hdr "cruise_guard_"));
    test "inline-guard C compiles and evaluates" (fun () ->
        let dir = Filename.temp_file "fsmguard" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        Codegen_c.save ~inline_guards:true guarded_fsm ~dir;
        let stub = Filename.concat dir "stub.c" in
        let oc = open_out stub in
        output_string oc
          "#include \"cruise.h\"\n\
           double speed = 0.0;\n\
           void cruise_action_hold(void) {}\n\
           int main(void) {\n\
           \  speed = 30.0;\n\
           \  if (cruise_step(cruise_initial(), CRUISE_EV_ENGAGE) != CRUISE_ST_OFF) return 1;\n\
           \  speed = 90.0;\n\
           \  if (cruise_step(cruise_initial(), CRUISE_EV_ENGAGE) != CRUISE_ST_ON) return 2;\n\
           \  return 0;\n\
           }\n";
        close_out oc;
        let bin = Filename.concat dir "t" in
        check Alcotest.int "gcc" 0
          (Sys.command
             (Printf.sprintf "gcc -o %s %s %s 2>/dev/null" bin
                (Filename.concat dir "cruise.c") stub));
        check Alcotest.int "guard behaviour" 0 (Sys.command bin));
  ]

let suite =
  [
    ("guards:parse", parse_tests);
    ("guards:eval", eval_tests);
    ("guards:integration", integration_tests);
  ]
