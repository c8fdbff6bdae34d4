type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Comment of string

exception Parse_error of { line : int; column : int; message : string }

let element ?(attrs = []) tag children = Element (tag, attrs, children)
let text s = Text s

let tag = function
  | Element (tag, _, _) -> tag
  | Text _ | Comment _ -> invalid_arg "Xml.tag: not an element"

let attrs = function Element (_, attrs, _) -> attrs | Text _ | Comment _ -> []

let children = function
  | Element (_, _, children) -> children
  | Text _ | Comment _ -> []

let attr name node = List.assoc_opt name (attrs node)

let attr_exn name node =
  match attr name node with Some v -> v | None -> raise Not_found

let element_children node =
  let is_element = function Element _ -> true | Text _ | Comment _ -> false in
  List.filter is_element (children node)

let children_named name node =
  let matches = function
    | Element (tag, _, _) -> String.equal tag name
    | Text _ | Comment _ -> false
  in
  List.filter matches (children node)

let child name node =
  match children_named name node with [] -> None | first :: _ -> Some first

let text_content node =
  let buf = Buffer.create 64 in
  let rec collect = function
    | Text s -> Buffer.add_string buf s
    | Comment _ -> ()
    | Element (_, _, children) -> List.iter collect children
  in
  collect node;
  Buffer.contents buf

(* Escaping *)

let escape escape_quotes s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when escape_quotes -> Buffer.add_string buf "&quot;"
      | '\'' when escape_quotes -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attribute = escape true
let escape_text = escape false

(* Printing *)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_blank s = String.for_all is_space s

let rec print_node buf step depth node =
  let pad () = Buffer.add_string buf (String.make (depth * step) ' ') in
  match node with
  | Text s ->
      pad ();
      Buffer.add_string buf (escape_text s);
      Buffer.add_char buf '\n'
  | Comment s ->
      pad ();
      Buffer.add_string buf "<!-- ";
      Buffer.add_string buf s;
      Buffer.add_string buf " -->\n"
  | Element (tag, attrs, children) ->
      pad ();
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_attribute v);
          Buffer.add_char buf '"')
        attrs;
      let significant =
        List.filter (function Text s -> not (is_blank s) | _ -> true) children
      in
      (match significant with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Text s ] ->
          Buffer.add_char buf '>';
          Buffer.add_string buf (escape_text s);
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_string buf ">\n"
      | _ ->
          Buffer.add_string buf ">\n";
          List.iter (print_node buf step (depth + 1)) significant;
          pad ();
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_string buf ">\n")

let to_string ?(declaration = true) ?(indent = 2) node =
  let buf = Buffer.create 1024 in
  if declaration then
    Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  print_node buf indent 0 node;
  Buffer.contents buf

let pp ppf node = Format.pp_print_string ppf (to_string ~declaration:false node)

(* Parsing: one loop over one byte offset.  The open elements wait on an
   explicit stack, so nesting costs heap, not native stack, and line and
   column are counted from the offset only when the parse fails. *)

type parser_state = { input : string; mutable pos : int }

let fail st message =
  let line = ref 1 and line_start = ref 0 in
  for i = 0 to st.pos - 1 do
    if st.input.[i] = '\n' then (
      incr line;
      line_start := i + 1)
  done;
  raise (Parse_error { line = !line; column = st.pos - !line_start + 1; message })

let at_end st = st.pos >= String.length st.input

let next st =
  if at_end st then fail st "unexpected end of input";
  st.pos <- st.pos + 1;
  st.input.[st.pos - 1]

let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.input
  &&
  let i = ref 0 in
  while !i < n && st.input.[st.pos + !i] = prefix.[!i] do
    incr i
  done;
  !i = n

(* Skip [prefix] when the input continues with it. *)
let accept st prefix =
  looking_at st prefix
  && (st.pos <- st.pos + String.length prefix;
      true)

let expect_string st prefix =
  if not (accept st prefix) then fail st (Printf.sprintf "expected %S" prefix)

let skip_while st p =
  while (not (at_end st)) && p st.input.[st.pos] do
    st.pos <- st.pos + 1
  done

let skip_whitespace st = skip_while st is_space

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let parse_name st =
  let start = st.pos in
  skip_while st is_name_char;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

(* The text up to [terminator], which is skipped too. *)
let scan_to st terminator =
  let start = st.pos in
  while not (looking_at st terminator) do
    ignore (next st)
  done;
  st.pos <- st.pos + String.length terminator;
  String.sub st.input start (st.pos - String.length terminator - start)

let decode_entity st =
  (* Called just after '&'. *)
  let semi =
    match String.index_from_opt st.input st.pos ';' with
    | Some i when i - st.pos <= 8 -> i
    | Some _ | None -> fail st "unterminated entity reference"
  in
  let name = String.sub st.input st.pos (semi - st.pos) in
  let value =
    match name with
    | "amp" -> "&"
    | "lt" -> "<"
    | "gt" -> ">"
    | "quot" -> "\""
    | "apos" -> "'"
    | _ when name <> "" && name.[0] = '#' ->
        (* Only "#" decimal digits and "#x" hex digits. *)
        let hex = String.length name > 1 && name.[1] = 'x' in
        let first = if hex then 2 else 1 in
        let digits = String.sub name first (String.length name - first) in
        let is_digit = function
          | '0' .. '9' -> true
          | 'a' .. 'f' | 'A' .. 'F' -> hex
          | _ -> false
        in
        if digits = "" || not (String.for_all is_digit digits) then
          fail st (Printf.sprintf "bad character reference &%s;" name);
        let code = int_of_string ((if hex then "0x" else "") ^ digits) in
        if code < 128 then String.make 1 (Char.chr code)
        else fail st "non-ASCII character reference unsupported"
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" name)
  in
  st.pos <- semi + 1;
  value

(* The text up to the next [stop] byte or the end of input, with its
   references decoded. *)
let scan_text st stop =
  let buf = Buffer.create 16 in
  while (not (at_end st)) && st.input.[st.pos] <> stop do
    match next st with
    | '&' -> Buffer.add_string buf (decode_entity st)
    | c -> Buffer.add_char buf c
  done;
  Buffer.contents buf

let rec skip_prolog st =
  skip_whitespace st;
  match
    List.find_opt
      (fun (opening, _) -> looking_at st opening)
      [ ("<?", "?>"); ("<!--", "-->"); ("<!DOCTYPE", ">") ]
  with
  | Some (opening, terminator) ->
      expect_string st opening;
      ignore (scan_to st terminator);
      skip_prolog st
  | None -> ()

(* An element whose end tag is still to come; its children so far are
   in reverse. *)
type open_element = {
  name : string;
  attributes : (string * string) list;
  mutable children : t list;
}

let add parent node = parent.children <- node :: parent.children

(* A start tag, after its "<". *)
let start_tag st =
  let name = parse_name st in
  let rec attributes acc =
    skip_whitespace st;
    if at_end st || not (is_name_char st.input.[st.pos]) then List.rev acc
    else
      let key = parse_name st in
      skip_whitespace st;
      expect_string st "=";
      skip_whitespace st;
      let quote = next st in
      if quote <> '"' && quote <> '\'' then fail st "expected attribute quote";
      let value = scan_text st quote in
      ignore (next st);
      attributes ((key, value) :: acc)
  in
  let attributes = attributes [] in
  if accept st "/>" then `Closed (Element (name, attributes, []))
  else (
    expect_string st ">";
    `Open { name; attributes; children = [] })

let parse_string input =
  let st = { input; pos = 0 } in
  skip_prolog st;
  if not (accept st "<") then fail st "expected root element";
  (* One turn per end tag, comment, CDATA section, start tag or text
     run: [top] is the innermost open element, [outer] the rest of the
     stack. *)
  let rec loop top outer =
    if accept st "</" then (
      let closing = parse_name st in
      skip_whitespace st;
      expect_string st ">";
      if closing <> top.name then
        fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing top.name);
      let node = Element (top.name, top.attributes, List.rev top.children) in
      match outer with
      | [] -> node
      | parent :: outer ->
          add parent node;
          loop parent outer)
    else if accept st "<!--" then (
      ignore (scan_to st "-->");
      loop top outer)
    else if accept st "<![CDATA[" then (
      add top (Text (scan_to st "]]>"));
      loop top outer)
    else if accept st "<" then (
      match start_tag st with
      | `Closed node ->
          add top node;
          loop top outer
      | `Open child -> loop child (top :: outer))
    else
      let s = scan_text st '<' in
      (* Without this check a truncated document would loop here
         forever, gathering empty text. *)
      if at_end st then
        fail st (Printf.sprintf "unexpected end of input inside <%s>" top.name);
      if not (is_blank s) then add top (Text s);
      loop top outer
  in
  let root = match start_tag st with `Closed root -> root | `Open root -> loop root [] in
  skip_whitespace st;
  if not (at_end st) then fail st "trailing content after root element";
  root

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string content

let rec equal a b =
  let significant nodes =
    List.filter
      (function Comment _ -> false | Text s -> not (is_blank s) | Element _ -> true)
      nodes
  in
  let sort_attrs l = List.sort compare l in
  match (a, b) with
  | Text s1, Text s2 -> String.equal s1 s2
  | Comment _, Comment _ -> true
  | Element (t1, a1, c1), Element (t2, a2, c2) ->
      String.equal t1 t2
      && sort_attrs a1 = sort_attrs a2
      &&
      let c1 = significant c1 and c2 = significant c2 in
      List.length c1 = List.length c2 && List.for_all2 equal c1 c2
  | (Element _ | Text _ | Comment _), _ -> false
