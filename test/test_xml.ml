module Xml = Umlfront_xml.Xml

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let parse_one s = Xml.parse_string s

let escaping =
  [
    test "escape text ampersand" (fun () ->
        check Alcotest.string "amp" "a &amp; b" (Xml.escape_text "a & b"));
    test "escape text angle brackets" (fun () ->
        check Alcotest.string "lt-gt" "&lt;x&gt;" (Xml.escape_text "<x>"));
    test "escape attribute quotes" (fun () ->
        check Alcotest.string "quot" "&quot;hi&apos;" (Xml.escape_attribute "\"hi'"));
    test "text keeps quotes" (fun () ->
        check Alcotest.string "keep" "\"hi\"" (Xml.escape_text "\"hi\""));
  ]

let accessors =
  let doc =
    Xml.element ~attrs:[ ("id", "1"); ("name", "root") ] "model"
      [
        Xml.element ~attrs:[ ("k", "a") ] "child" [];
        Xml.text "hello";
        Xml.Comment "noise";
        Xml.element ~attrs:[ ("k", "b") ] "child" [ Xml.text "world" ];
        Xml.element "other" [];
      ]
  in
  [
    test "tag" (fun () -> check Alcotest.string "tag" "model" (Xml.tag doc));
    test "tag of text raises" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Xml.tag: not an element")
          (fun () -> ignore (Xml.tag (Xml.text "x"))));
    test "attr present" (fun () ->
        check Alcotest.(option string) "attr" (Some "root") (Xml.attr "name" doc));
    test "attr missing" (fun () ->
        check Alcotest.(option string) "attr" None (Xml.attr "absent" doc));
    test "attr_exn raises" (fun () ->
        Alcotest.check_raises "not found" Not_found (fun () ->
            ignore (Xml.attr_exn "absent" doc)));
    test "children_named finds both" (fun () ->
        check Alcotest.int "count" 2 (List.length (Xml.children_named "child" doc)));
    test "child takes first" (fun () ->
        check Alcotest.(option string) "first" (Some "a")
          (Option.bind (Xml.child "child" doc) (Xml.attr "k")));
    test "element_children drops text and comments" (fun () ->
        check Alcotest.int "count" 3 (List.length (Xml.element_children doc)));
    test "text_content gathers descendants" (fun () ->
        check Alcotest.string "text" "helloworld" (Xml.text_content doc));
  ]

let parsing =
  [
    test "simple element" (fun () ->
        let e = parse_one "<a/>" in
        check Alcotest.string "tag" "a" (Xml.tag e));
    test "attributes single and double quotes" (fun () ->
        let e = parse_one "<a x=\"1\" y='2'/>" in
        check Alcotest.(option string) "x" (Some "1") (Xml.attr "x" e);
        check Alcotest.(option string) "y" (Some "2") (Xml.attr "y" e));
    test "nested elements" (fun () ->
        let e = parse_one "<a><b><c/></b></a>" in
        check Alcotest.int "depth" 1 (List.length (Xml.element_children e));
        let b = List.hd (Xml.element_children e) in
        check Alcotest.string "inner" "c" (Xml.tag (List.hd (Xml.element_children b))));
    test "text content" (fun () ->
        let e = parse_one "<a>hi there</a>" in
        check Alcotest.string "text" "hi there" (Xml.text_content e));
    test "entities decoded" (fun () ->
        let e = parse_one "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;</a>" in
        check Alcotest.string "decoded" "<x> & \"y\" '" (Xml.text_content e));
    test "numeric character reference" (fun () ->
        let e = parse_one "<a>&#65;&#x42;</a>" in
        check Alcotest.string "decoded" "AB" (Xml.text_content e));
    test "malformed character references raise Parse_error" (fun () ->
        List.iter
          (fun reference ->
            let got =
              match parse_one ("<a>" ^ reference ^ "</a>") with
              | _ -> None
              | exception Xml.Parse_error { line; column; message } ->
                  Some (line, column, message)
            in
            check
              Alcotest.(option (triple int int string))
              reference
              (Some (1, 5, "bad character reference " ^ reference))
              got)
          [ "&#xZZ;"; "&#x;"; "&#x-1;"; "&#-5;"; "&#0x41;"; "&#1_2;"; "&#0b1;"; "&#x4_1;" ]);
    test "entity in attribute" (fun () ->
        let e = parse_one "<a x=\"1 &amp; 2\"/>" in
        check Alcotest.(option string) "x" (Some "1 & 2") (Xml.attr "x" e));
    test "xml declaration skipped" (fun () ->
        let e = parse_one "<?xml version=\"1.0\"?><a/>" in
        check Alcotest.string "tag" "a" (Xml.tag e));
    test "doctype skipped" (fun () ->
        let e = parse_one "<!DOCTYPE html><a/>" in
        check Alcotest.string "tag" "a" (Xml.tag e));
    test "comments skipped" (fun () ->
        let e = parse_one "<a><!-- hidden --><b/></a>" in
        check Alcotest.int "children" 1 (List.length (Xml.element_children e)));
    test "cdata preserved verbatim" (fun () ->
        let e = parse_one "<a><![CDATA[<raw> & stuff]]></a>" in
        check Alcotest.string "cdata" "<raw> & stuff" (Xml.text_content e));
    test "mismatched closing tag rejected" (fun () ->
        match parse_one "<a><b></a></b>" with
        | exception Xml.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test "trailing garbage rejected" (fun () ->
        match parse_one "<a/><b/>" with
        | exception Xml.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test "unterminated string rejected" (fun () ->
        match parse_one "<a x=\"1/>" with
        | exception Xml.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test "error carries line number" (fun () ->
        match parse_one "<a>\n<b>\n</c>\n</a>" with
        | exception Xml.Parse_error { line; _ } ->
            check Alcotest.bool "line >= 3" true (line >= 3)
        | _ -> Alcotest.fail "expected Parse_error");
    test "whitespace-only text dropped" (fun () ->
        let e = parse_one "<a>\n  <b/>\n</a>" in
        check Alcotest.int "children" 1 (List.length (Xml.children e)));
  ]

(* Every place the reader can reject a document, with the line, column
   and message it reports there. *)
let error_table =
  [
    ("", 1, 1, "expected root element");
    ("   ", 1, 4, "expected root element");
    ("hello", 1, 1, "expected root element");
    ("<>", 1, 2, "expected a name");
    ("<a></", 1, 6, "expected a name");
    ("<a><!DOCTYPE x></a>", 1, 5, "expected a name");
    ("<a><?pi?></a>", 1, 5, "expected a name");
    ("<a b></a>", 1, 5, "expected \"=\"");
    ("<a x=\"1\"\n   y", 2, 5, "expected \"=\"");
    ("<a b=x/>", 1, 7, "expected attribute quote");
    ("<a b=", 1, 6, "unexpected end of input");
    ("<a b=\n'", 2, 2, "unexpected end of input");
    ("<a b=\"x", 1, 8, "unexpected end of input");
    ("<a><!-- open", 1, 13, "unexpected end of input");
    ("<!-- c --><!-- d", 1, 17, "unexpected end of input");
    ("<a><![CDATA[x", 1, 14, "unexpected end of input");
    ("<?xml", 1, 6, "unexpected end of input");
    ("<!DOCTYPE a", 1, 12, "unexpected end of input");
    ("<a>&bogus;</a>", 1, 5, "unknown entity &bogus;");
    ("<a x='&nope;'/>", 1, 8, "unknown entity &nope;");
    ("<a>&#x41;&;</a>", 1, 11, "unknown entity &;");
    ("<a>&amp</a>", 1, 5, "unterminated entity reference");
    ("<a x=\"&lt\"/>", 1, 8, "unterminated entity reference");
    ("<a>&verylongname;</a>", 1, 5, "unterminated entity reference");
    ("<a>&#233;</a>", 1, 5, "non-ASCII character reference unsupported");
    ("<a>&#xE9;</a>", 1, 5, "non-ASCII character reference unsupported");
    ("<a x=\"&#233;\"/>", 1, 8, "non-ASCII character reference unsupported");
    ("<a></b>", 1, 8, "mismatched closing tag </b> for <a>");
    ("<a b=\"1\" b2=\"\n\">\n<c></d>", 3, 8, "mismatched closing tag </d> for <c>");
    ("<a", 1, 3, "expected \">\"");
    ("<a></a", 1, 7, "expected \">\"");
    ("<a>", 1, 4, "unexpected end of input inside <a>");
    ("<a>\n  <b>\n", 3, 1, "unexpected end of input inside <b>");
    ("<a>\r\n<b/>x", 2, 6, "unexpected end of input inside <a>");
    ("<a/>junk", 1, 5, "trailing content after root element");
    ("<a/><!-- c -->", 1, 5, "trailing content after root element");
    ("<a\n/>\n\n  tail", 4, 3, "trailing content after root element");
  ]

let errors =
  [
    test "each malformed document fails at its line, column and message" (fun () ->
        List.iter
          (fun (input, line, column, message) ->
            let got =
              match Xml.parse_string input with
              | _ -> None
              | exception Xml.Parse_error { line; column; message } ->
                  Some (line, column, message)
            in
            check
              Alcotest.(option (triple int int string))
              (Printf.sprintf "%S" input)
              (Some (line, column, message))
              got)
          error_table);
  ]

let equality =
  [
    test "equal ignores attribute order" (fun () ->
        let a = parse_one "<a x=\"1\" y=\"2\"/>" in
        let b = parse_one "<a y=\"2\" x=\"1\"/>" in
        check Alcotest.bool "equal" true (Xml.equal a b));
    test "equal ignores comments" (fun () ->
        check Alcotest.bool "equal" true
          (Xml.equal (parse_one "<a><b/></a>") (parse_one "<a><!--x--><b/></a>")));
    test "different attr values differ" (fun () ->
        check Alcotest.bool "differ" false
          (Xml.equal (parse_one "<a x=\"1\"/>") (parse_one "<a x=\"2\"/>")));
    test "different child order differs" (fun () ->
        check Alcotest.bool "differ" false
          (Xml.equal (parse_one "<a><b/><c/></a>") (parse_one "<a><c/><b/></a>")));
  ]

(* Random tree round-trip. *)
let gen_tree =
  let open QCheck.Gen in
  let tag = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
  let attr_name = oneofl [ "id"; "name"; "kind"; "value" ] in
  let safe_string =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; ' '; '&'; '<'; '>'; '"'; '\'' ]) (0 -- 8)
  in
  let rec tree depth =
    if depth = 0 then map2 (fun t attrs -> Xml.element ~attrs t []) tag
        (list_size (0 -- 3) (pair attr_name safe_string))
    else
      map3
        (fun t attrs children -> Xml.element ~attrs t children)
        tag
        (map
           (fun l ->
             (* Duplicate attribute names break round-tripping; dedupe. *)
             List.fold_left
               (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
               [] l)
           (list_size (0 -- 3) (pair attr_name safe_string)))
        (list_size (0 -- 3) (tree (depth - 1)))
  in
  tree 3

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"print/parse round-trip" ~count:200
         (QCheck.make gen_tree)
         (fun t -> Xml.equal t (Xml.parse_string (Xml.to_string t))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"escape_text never emits raw < or &" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_bound 50))
         (fun s ->
           let e = Xml.escape_text s in
           not (String.contains e '<')
           &&
           (* every & must begin an entity *)
           let ok = ref true in
           String.iteri
             (fun i c ->
               if c = '&' then
                 let rest = String.sub e i (min 6 (String.length e - i)) in
                 if
                   not
                     (List.exists
                        (fun p ->
                          String.length rest >= String.length p
                          && String.sub rest 0 (String.length p) = p)
                        [ "&amp;"; "&lt;"; "&gt;" ])
                 then ok := false)
             e;
           !ok));
  ]

let suite =
  [
    ("xml:escaping", escaping);
    ("xml:accessors", accessors);
    ("xml:parsing", parsing);
    ("xml:errors", errors);
    ("xml:equality", equality);
    ("xml:properties", properties);
  ]
