(* Minimal JSON tree, serializer and parser, enough for Chrome
   trace-event files, metrics snapshots and the BENCH_*.json bench
   baselines that `umlfront bench-diff` reads back.  The repo
   deliberately has no third-party JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Each run of bytes that needs no escape is copied in one piece. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then (
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf (if Char.code c < 0x10 then "\\u000" else "\\u001");
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xf]);
      start := i + 1)
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* The primitive Printf's %.0f and %.6f call, without building the
   format each time. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (format_float "%.0f" f)
  else Buffer.add_string buf (format_float "%.6f" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  add buf v;
  Buffer.contents buf

(* Accessors used by tests and bench-diff to walk a tree. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let items = function List l -> l | _ -> []

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | List _ | Obj _ -> None

(* --- parsing -------------------------------------------------------- *)

(* Recursive-descent parser over the whole JSON grammar (numbers are
   parsed as [Int] when they carry no fraction/exponent and fit, else
   [Float]; \uXXXX escapes below 0x80 decode to the byte, others keep
   a '?' placeholder — the tool never emits them).  Errors carry the
   byte offset, which is enough to debug a hand-edited baseline. *)

exception Parse_error of { offset : int; message : string }

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail message = raise (Parse_error { offset = !pos; message }) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %C, found %C" c d)
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      value)
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char buf e;
                  loop ()
              | 'n' ->
                  Buffer.add_char buf '\n';
                  loop ()
              | 'r' ->
                  Buffer.add_char buf '\r';
                  loop ()
              | 't' ->
                  Buffer.add_char buf '\t';
                  loop ()
              | 'b' ->
                  Buffer.add_char buf '\b';
                  loop ()
              | 'f' ->
                  Buffer.add_char buf '\012';
                  loop ()
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  (match int_of_string_opt ("0x" ^ hex) with
                  | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                  | Some _ -> Buffer.add_char buf '?'
                  | None -> fail "invalid \\u escape");
                  loop ()
              | _ -> fail (Printf.sprintf "invalid escape \\%c" e))
        | c ->
            Buffer.add_char buf c;
            loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let fractional = ref false in
    let consume () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); true
      | Some ('.' | 'e' | 'E') ->
          fractional := true;
          advance ();
          true
      | _ -> false
    in
    while consume () do
      ()
    done;
    let text = String.sub s start (!pos - start) in
    if not !fractional then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" text))
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}' in object"
          in
          Obj (fields [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' in array"
          in
          List (elements [])
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error { offset; message } ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" offset message)
