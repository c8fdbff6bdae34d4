exception Error of { line : int; message : string }

type node = {
  section : string;
  fields : (string * string) list;
  children : node list;
}

type token = Ident of string | Value of string | Open_brace | Close_brace

let tokenize input =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length input in
  let fail message = raise (Error { line = !line; message }) in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  while !i < n do
    let c = input.[!i] in
    (match c with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '{' ->
        push Open_brace;
        incr i
    | '}' ->
        push Close_brace;
        incr i
    | '"' ->
        let buf = Buffer.create 16 in
        incr i;
        let rec scan () =
          if !i >= n then fail "unterminated string"
          else
            match input.[!i] with
            | '"' -> incr i
            | '\\' when !i + 1 < n ->
                Buffer.add_char buf input.[!i + 1];
                i := !i + 2;
                scan ()
            | ch ->
                if ch = '\n' then incr line;
                Buffer.add_char buf ch;
                incr i;
                scan ()
        in
        scan ();
        push (Value (Buffer.contents buf))
    | '[' ->
        (* Port vectors: read through the matching bracket as one value. *)
        let buf = Buffer.create 8 in
        while !i < n && input.[!i] <> ']' do
          Buffer.add_char buf input.[!i];
          incr i
        done;
        if !i >= n then fail "unterminated [";
        Buffer.add_char buf ']';
        incr i;
        push (Value (Buffer.contents buf))
    | '#' ->
        while !i < n && input.[!i] <> '\n' do
          incr i
        done
    | _ ->
        let start = !i in
        let is_word ch =
          not
            (ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r' || ch = '{' || ch = '}'
           || ch = '"')
        in
        while !i < n && is_word input.[!i] do
          incr i
        done;
        if !i = start then fail (Printf.sprintf "unexpected character %C" c);
        push (Ident (String.sub input start (!i - start))));
    ()
  done;
  List.rev !tokens

let parse_tree input =
  let tokens = ref (tokenize input) in
  let fail line message = raise (Error { line; message }) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let advance () = match !tokens with [] -> () | _ :: rest -> tokens := rest in
  let rec parse_section name =
    (* After "<name> {". *)
    let fields = ref [] in
    let children = ref [] in
    let rec loop () =
      match peek () with
      | None -> fail 0 (Printf.sprintf "unterminated section %s" name)
      | Some (Close_brace, _) -> advance ()
      | Some (Ident key, line) -> (
          advance ();
          match peek () with
          | Some (Open_brace, _) ->
              advance ();
              children := parse_section key :: !children;
              loop ()
          | Some (Value v, _) ->
              advance ();
              fields := (key, v) :: !fields;
              loop ()
          | Some (Ident v, _) ->
              advance ();
              fields := (key, v) :: !fields;
              loop ()
          | Some (Close_brace, l) -> fail l (Printf.sprintf "dangling key %s" key)
          | None -> fail line "unexpected end of input")
      | Some ((Value _ | Open_brace), line) -> fail line "expected a key"
    in
    loop ();
    { section = name; fields = List.rev !fields; children = List.rev !children }
  in
  match peek () with
  | Some (Ident name, _) -> (
      advance ();
      match peek () with
      | Some (Open_brace, _) ->
          advance ();
          let root = parse_section name in
          (match peek () with
          | None -> root
          | Some (_, line) -> fail line "trailing content after root section")
      | Some (_, line) -> fail line "expected {"
      | None -> fail 0 "unexpected end of input")
  | Some (_, line) -> fail line "expected a section name"
  | None -> fail 0 "empty input"

let field_opt node key = List.assoc_opt key node.fields

let field node key =
  match field_opt node key with
  | Some v -> v
  | None ->
      raise (Error { line = 0; message = Printf.sprintf "%s missing %s" node.section key })

let number of_string node key =
  let raw = field node key in
  match of_string raw with
  | Some v -> v
  | None ->
      raise
        (Error
           { line = 0; message = Printf.sprintf "%s %s is not a number: %S" node.section key raw })

(* System rejects duplicate block names and lines to missing blocks with
   Invalid_argument; the reader reports them as [Error]. *)
let rejected f = try f () with Invalid_argument message -> raise (Error { line = 0; message })

let structural_fields = [ "BlockType"; "Name"; "Ports" ]

let parse_param (key, raw) =
  if List.mem key structural_fields then None
  else
    (* mdl loses the OCaml-side type; recover ints and floats, keep the
       rest as strings.  Writer quotes all P_string values, but the raw
       token stream has already dropped quoting, so use numeric shape. *)
    let value =
      match int_of_string_opt raw with
      | Some i -> Block.P_int i
      | None -> (
          match float_of_string_opt raw with
          | Some f -> Block.P_float f
          | None -> Block.P_string raw)
    in
    Some (key, value)

let rec system_of_node node =
  let name = field node "Name" in
  let sys = System.empty name in
  let sys =
    List.fold_left
      (fun sys child ->
        match child.section with
        | "Block" -> add_block_of_node sys child
        | "Line" -> sys
        | other ->
            raise (Error { line = 0; message = Printf.sprintf "unexpected section %s" other }))
      sys node.children
  in
  List.fold_left
    (fun sys child ->
      if String.equal child.section "Line" then
        let port_ref bkey pkey =
          {
            System.block = field child bkey;
            System.port = number int_of_string_opt child pkey;
          }
        in
        rejected (fun () ->
            System.add_line sys ~src:(port_ref "SrcBlock" "SrcPort")
              ~dst:(port_ref "DstBlock" "DstPort"))
      else sys)
    sys node.children

and add_block_of_node sys node =
  let block_type = field node "BlockType" in
  let ty =
    try Block.of_string block_type
    with Invalid_argument _ ->
      raise (Error { line = 0; message = Printf.sprintf "unknown BlockType %S" block_type })
  in
  let name = field node "Name" in
  let params = List.filter_map parse_param node.fields in
  let system =
    match (ty, List.find_opt (fun c -> String.equal c.section "System") node.children) with
    | Block.Subsystem, Some sys_node -> Some (system_of_node sys_node)
    | _, _ -> None
  in
  rejected (fun () -> System.add_block ~params ?system sys ty name)

let parse_string input =
  let model = ref None in
  Umlfront_obs.Trace.with_span ~cat:"mdl" "mdl.parse"
    ~args:(fun () ->
      let blocks =
        match !model with
        | Some (m : Model.t) -> System.total_blocks m.Model.root
        | None -> 0
      in
      [
        ("bytes", Umlfront_obs.Json.Int (String.length input));
        ("blocks", Umlfront_obs.Json.Int blocks);
      ])
  @@ fun () ->
  let root = parse_tree input in
  if not (String.equal root.section "Model") then
    raise (Error { line = 0; message = "root section must be Model" });
  let sys_node =
    match List.find_opt (fun c -> String.equal c.section "System") root.children with
    | Some s -> s
    | None -> raise (Error { line = 0; message = "Model has no System" })
  in
  let solver = Option.value (field_opt root "Solver") ~default:"FixedStepDiscrete" in
  let stop_time =
    if field_opt root "StopTime" = None then 10.0
    else number float_of_string_opt root "StopTime"
  in
  let m =
    Model.make ~solver ~stop_time ~name:(field root "Name") (system_of_node sys_node)
  in
  model := Some m;
  Umlfront_obs.Metrics.incr "mdl.parse.models";
  Umlfront_obs.Metrics.incr "mdl.parse.bytes" ~by:(String.length input);
  Umlfront_obs.Metrics.incr "mdl.parse.blocks" ~by:(System.total_blocks m.Model.root);
  m

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string content
