type t = { buf : Buffer.t; indent_step : int; mutable level : int }

let create ?(indent_step = 2) () = { buf = Buffer.create 1024; indent_step; level = 0 }

let pad t = Buffer.add_string t.buf (String.make (t.level * t.indent_step) ' ')

let line t fmt =
  Printf.ksprintf
    (fun s ->
      pad t;
      Buffer.add_string t.buf s;
      Buffer.add_char t.buf '\n')
    fmt

let blank t = Buffer.add_char t.buf '\n'
let raw t s = Buffer.add_string t.buf s

let indented t body =
  t.level <- t.level + 1;
  body ();
  t.level <- t.level - 1

let block t ~opener ~closer body =
  line t "%s" opener;
  indented t body;
  line t "%s" closer

let contents t = Buffer.contents t.buf

let sanitize s =
  let mapped =
    String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        then c
        else '_')
      s
  in
  if mapped = "" || (mapped.[0] >= '0' && mapped.[0] <= '9') then "x" ^ mapped
  else mapped

(* The first name to claim a spelling keeps it, later claimants get a
   [_2], [_3], … suffix.  Deterministic, because claim order is. *)
let make_namer spell =
  let assigned = Hashtbl.create 16 and taken = Hashtbl.create 16 in
  fun raw ->
    match Hashtbl.find_opt assigned raw with
    | Some ident -> ident
    | None ->
        let base = spell raw in
        let ident =
          if not (Hashtbl.mem taken base) then base
          else
            let rec next i =
              let candidate = Printf.sprintf "%s_%d" base i in
              if Hashtbl.mem taken candidate then next (i + 1) else candidate
            in
            next 2
        in
        Hashtbl.replace taken ident ();
        Hashtbl.replace assigned raw ident;
        ident
