module M2t = Umlfront_transform.M2t

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let m2t_tests =
  [
    test "line and indent" (fun () ->
        let t = M2t.create () in
        M2t.line t "a";
        M2t.indented t (fun () -> M2t.line t "b");
        M2t.line t "c";
        check Alcotest.string "text" "a\n  b\nc\n" (M2t.contents t));
    test "block helper" (fun () ->
        let t = M2t.create () in
        M2t.block t ~opener:"begin" ~closer:"end" (fun () -> M2t.line t "x");
        check Alcotest.string "text" "begin\n  x\nend\n" (M2t.contents t));
    test "custom indent step" (fun () ->
        let t = M2t.create ~indent_step:4 () in
        M2t.indented t (fun () -> M2t.line t "deep");
        check Alcotest.string "text" "    deep\n" (M2t.contents t));
    test "formatted lines" (fun () ->
        let t = M2t.create () in
        M2t.line t "%s = %d;" "x" 42;
        check Alcotest.string "text" "x = 42;\n" (M2t.contents t));
  ]

let suite = [ ("transform:m2t", m2t_tests) ]
