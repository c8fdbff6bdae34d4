(* Read a document nested 100,000 elements deep.  test/dune runs this
   under an 8 MB stack (OCAMLRUNPARAM l=1M): the reader keeps its open
   elements on the heap, so the depth must not overflow the stack. *)

module Xml = Umlfront_xml.Xml

let depth = 100_000

let () =
  let doc = Buffer.create (7 * depth) in
  for _ = 1 to depth do
    Buffer.add_string doc "<a>"
  done;
  for _ = 1 to depth do
    Buffer.add_string doc "</a>"
  done;
  let rec measure d node =
    match Xml.element_children node with [ child ] -> measure (d + 1) child | _ -> d
  in
  let got = measure 1 (Xml.parse_string (Buffer.contents doc)) in
  if got <> depth then failwith (Printf.sprintf "read %d levels of %d" got depth);
  Printf.printf "read %d nested elements\n" got
