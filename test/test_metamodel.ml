module Meta = Umlfront_metamodel.Meta
module Mm = Umlfront_metamodel.Mmodel
module Ecore = Umlfront_metamodel.Ecore_io
module Trace = Umlfront_metamodel.Trace

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* A small library metamodel used throughout. *)
let library_mm =
  Meta.create ~name:"library"
    [
      Meta.metaclass "Named" ~abstract:true
        ~attributes:[ Meta.attribute ~required:true "name" Meta.T_string ];
      Meta.metaclass "Library" ~super:"Named"
        ~references:[ Meta.reference ~containment:true ~many:true "books" "Book" ];
      Meta.metaclass "Book" ~super:"Named"
        ~attributes:
          [
            Meta.attribute "pages" Meta.T_int;
            Meta.attribute "genre" (Meta.T_enum [ "novel"; "reference" ]);
          ]
        ~references:[ Meta.reference "author" "Author" ];
      Meta.metaclass "Author" ~super:"Named";
    ]

let meta_tests =
  [
    test "duplicate class rejected" (fun () ->
        match Meta.create ~name:"bad" [ Meta.metaclass "A"; Meta.metaclass "A" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "dangling super rejected" (fun () ->
        match Meta.create ~name:"bad" [ Meta.metaclass ~super:"Ghost" "A" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "dangling reference target rejected" (fun () ->
        match
          Meta.create ~name:"bad"
            [ Meta.metaclass "A" ~references:[ Meta.reference "r" "Ghost" ] ]
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "subclass reflexive" (fun () ->
        check Alcotest.bool "refl" true
          (Meta.is_subclass_of library_mm ~sub:"Book" ~super:"Book"));
    test "subclass transitive" (fun () ->
        check Alcotest.bool "trans" true
          (Meta.is_subclass_of library_mm ~sub:"Book" ~super:"Named"));
    test "subclass negative" (fun () ->
        check Alcotest.bool "neg" false
          (Meta.is_subclass_of library_mm ~sub:"Named" ~super:"Book"));
    test "inherited attributes visible" (fun () ->
        let names =
          List.map (fun a -> a.Meta.attr_name) (Meta.all_attributes library_mm "Book")
        in
        check Alcotest.(list string) "attrs" [ "name"; "pages"; "genre" ] names);
    test "concrete classes exclude abstract" (fun () ->
        check Alcotest.bool "no Named" false
          (List.mem "Named" (Meta.concrete_classes library_mm)));
    test "find_attribute inherited" (fun () ->
        check Alcotest.bool "found" true
          (Meta.find_attribute library_mm ~cls:"Author" "name" <> None));
  ]

let sample_model () =
  let m = Mm.create library_mm in
  let lib = Mm.new_object ~id:"lib" m "Library" in
  Mm.set_string m lib "name" "city";
  let book = Mm.new_object ~id:"b1" m "Book" in
  Mm.set_string m book "name" "ocaml";
  Mm.set_int m book "pages" 200;
  let author = Mm.new_object ~id:"a1" m "Author" in
  Mm.set_string m author "name" "xavier";
  Mm.add_ref m ~src:lib "books" ~dst:book;
  Mm.add_ref m ~src:book "author" ~dst:author;
  (m, lib, book, author)

let model_tests =
  [
    test "abstract class cannot be instantiated" (fun () ->
        let m = Mm.create library_mm in
        match Mm.new_object m "Named" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "unknown class rejected" (fun () ->
        let m = Mm.create library_mm in
        match Mm.new_object m "Ghost" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "duplicate id rejected" (fun () ->
        let m = Mm.create library_mm in
        ignore (Mm.new_object ~id:"x" m "Book");
        match Mm.new_object ~id:"x" m "Author" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "generated ids unique" (fun () ->
        let m = Mm.create library_mm in
        let a = Mm.new_object m "Book" and b = Mm.new_object m "Book" in
        check Alcotest.bool "distinct" true (Mm.id a <> Mm.id b));
    test "attribute type mismatch rejected" (fun () ->
        let m = Mm.create library_mm in
        let b = Mm.new_object m "Book" in
        match Mm.set_string m b "pages" "two hundred" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "enum accepts only literals" (fun () ->
        let m = Mm.create library_mm in
        let b = Mm.new_object m "Book" in
        Mm.set_string m b "genre" "novel";
        match Mm.set_string m b "genre" "cookbook" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "unknown attribute rejected" (fun () ->
        let m = Mm.create library_mm in
        let b = Mm.new_object m "Book" in
        match Mm.set_int m b "weight" 3 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "reference target class enforced" (fun () ->
        let m, _, book, _ = sample_model () in
        let wrong = Mm.new_object m "Library" in
        match Mm.add_ref m ~src:book "author" ~dst:wrong with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "single-valued reference replaces" (fun () ->
        let m, _, book, author = sample_model () in
        let other = Mm.new_object m "Author" in
        Mm.add_ref m ~src:book "author" ~dst:other;
        check Alcotest.(option string) "replaced" (Some (Mm.id other))
          (Option.map Mm.id (Mm.ref1 m book "author"));
        check Alcotest.bool "old gone" true
          (Mm.refs m book "author" |> List.for_all (fun o -> Mm.id o <> Mm.id author)));
    test "containment: second container rejected" (fun () ->
        let m, _, book, _ = sample_model () in
        let lib2 = Mm.new_object m "Library" in
        match Mm.add_ref m ~src:lib2 "books" ~dst:book with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "container lookup" (fun () ->
        let m, lib, book, author = sample_model () in
        check Alcotest.(option string) "book in lib" (Some (Mm.id lib))
          (Option.map Mm.id (Mm.container m book));
        check Alcotest.(option string) "author free" None
          (Option.map Mm.id (Mm.container m author)));
    test "all_of_class includes subclasses" (fun () ->
        let m, _, _, _ = sample_model () in
        check Alcotest.int "named" 3 (List.length (Mm.all_of_class m "Named")));
    test "validate clean model" (fun () ->
        let m, _, _, _ = sample_model () in
        check Alcotest.int "no violations" 0 (List.length (Mm.validate m)));
    test "validate missing required attribute" (fun () ->
        let m = Mm.create library_mm in
        ignore (Mm.new_object m "Author");
        check Alcotest.bool "violation" true (Mm.validate m <> []));
  ]

let serialization_tests =
  [
    test "round-trip preserves size and values" (fun () ->
        let m, _, _, _ = sample_model () in
        let m' = Ecore.of_string library_mm (Ecore.to_string m) in
        check Alcotest.int "size" (Mm.size m) (Mm.size m');
        let book = Mm.find_exn m' "b1" in
        check Alcotest.(option int) "pages" (Some 200) (Mm.get_int book "pages");
        check Alcotest.(option string) "author ref" (Some "a1")
          (Option.map Mm.id (Mm.ref1 m' book "author")));
    test "round-trip preserves containment" (fun () ->
        let m, _, _, _ = sample_model () in
        let m' = Ecore.of_string library_mm (Ecore.to_string m) in
        check Alcotest.(option string) "container" (Some "lib")
          (Option.map Mm.id (Mm.container m' (Mm.find_exn m' "b1"))));
    test "stable after second round-trip" (fun () ->
        let m, _, _, _ = sample_model () in
        let once = Ecore.to_string (Ecore.of_string library_mm (Ecore.to_string m)) in
        let twice = Ecore.to_string (Ecore.of_string library_mm once) in
        check Alcotest.string "fixpoint" once twice);
    test "unknown feature rejected" (fun () ->
        match
          Ecore.of_string library_mm
            "<model metamodel=\"library\"><Book id=\"b\" weight=\"3\"/></model>"
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "missing id rejected" (fun () ->
        match Ecore.of_string library_mm "<model metamodel=\"library\"><Book/></model>" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let trace_tests =
  [
    test "targets_of finds recorded link" (fun () ->
        let t = Trace.create () in
        Trace.record t ~rule:"r1" ~sources:[ "a" ] ~targets:[ "x"; "y" ];
        check Alcotest.(list string) "targets" [ "x"; "y" ] (Trace.targets_of t "a"));
    test "rule filter" (fun () ->
        let t = Trace.create () in
        Trace.record t ~rule:"r1" ~sources:[ "a" ] ~targets:[ "x" ];
        Trace.record t ~rule:"r2" ~sources:[ "a" ] ~targets:[ "y" ];
        check Alcotest.(list string) "only r2" [ "y" ] (Trace.targets_of ~rule:"r2" t "a"));
    test "rules deduped sorted" (fun () ->
        let t = Trace.create () in
        Trace.record t ~rule:"z" ~sources:[] ~targets:[];
        Trace.record t ~rule:"a" ~sources:[] ~targets:[];
        Trace.record t ~rule:"z" ~sources:[] ~targets:[];
        check Alcotest.(list string) "rules" [ "a"; "z" ] (Trace.rules t));
    test "links in recording order" (fun () ->
        let t = Trace.create () in
        Trace.record t ~rule:"first" ~sources:[] ~targets:[];
        Trace.record t ~rule:"second" ~sources:[] ~targets:[];
        check Alcotest.(list string) "order" [ "first"; "second" ]
          (List.map (fun l -> l.Trace.rule) (Trace.links t)));
  ]

let suite =
  [
    ("metamodel:meta", meta_tests);
    ("metamodel:model", model_tests);
    ("metamodel:serialization", serialization_tests);
    ("metamodel:trace", trace_tests);
  ]
