(* HTTP/1.1 request decoder and response serializer.  See the .mli for
   the contract; the implementation is a two-state machine (reading the
   head, reading the body) over a single growing buffer, with consumed
   prefixes compacted away so a long-lived keep-alive connection does
   not accumulate garbage and a body costs time linear in its size.
   The buffer is kept between requests, so a keep-alive connection
   regrows it only for a request larger than any before it. *)

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

type error =
  [ `Bad_request of string | `Length_required | `Payload_too_large of int ]

let error_status = function
  | `Bad_request _ -> 400
  | `Length_required -> 411
  | `Payload_too_large _ -> 413

let error_message = function
  | `Bad_request m -> m
  | `Length_required -> "Content-Length required"
  | `Payload_too_large n -> Printf.sprintf "declared body of %d bytes too large" n

(* --- percent / query decoding --------------------------------------- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Buffer.contents buf
    else
      match s.[i] with
      | '%' when i + 2 < n -> (
          match (hex_val s.[i + 1], hex_val s.[i + 2]) with
          | Some a, Some b ->
              Buffer.add_char buf (Char.chr ((a * 16) + b));
              go (i + 3)
          | _ ->
              Buffer.add_char buf '%';
              go (i + 1))
      | '+' ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

let split_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
    | None -> (target, "")
  in
  let query =
    if raw_query = "" then []
    else
      List.filter_map
        (fun pair ->
          if pair = "" then None
          else
            match String.index_opt pair '=' with
            | Some i ->
                Some
                  ( percent_decode (String.sub pair 0 i),
                    percent_decode
                      (String.sub pair (i + 1) (String.length pair - i - 1)) )
            | None -> Some (percent_decode pair, ""))
        (String.split_on_char '&' raw_query)
  in
  (percent_decode raw_path, query)

(* --- decoder -------------------------------------------------------- *)

type state =
  | Head  (** accumulating until the blank line *)
  | Body of { head : request; need : int }  (** [head] minus its body *)
  | Failed of error

type decoder = {
  mutable buf : bytes;  (** bytes [start, stop) are fed but not consumed *)
  mutable start : int;
  mutable stop : int;
  mutable state : state;
  max_body : int;
  max_header : int;
}

let initial_capacity = 4096

(* What an idle decoder may keep: a buffer that grew past this for one
   large request is released once that request is consumed. *)
let max_idle_capacity = 64 * 1024

let decoder ?(max_body = 8 * 1024 * 1024) ?(max_header = 16 * 1024) () =
  {
    buf = Bytes.create initial_capacity;
    start = 0;
    stop = 0;
    state = Head;
    max_body;
    max_header;
  }

let buffered d = d.stop - d.start

(* Make room for [len] more bytes.  The unconsumed bytes slide to the
   front when the consumed prefix is at least as long as they are (so
   each slide is paid for by bytes consumed since the last one);
   otherwise they move to a buffer twice the size they need with the
   new bytes (paid for by the bytes fed before the next move).  Either
   way a byte is copied a bounded number of times however the
   transport splits it. *)
let reserve d len =
  if d.stop + len > Bytes.length d.buf then begin
    let live = buffered d in
    if live + len <= Bytes.length d.buf && d.start >= live then
      Bytes.blit d.buf d.start d.buf 0 live
    else begin
      let grown = Bytes.create (2 * (live + len)) in
      Bytes.blit d.buf d.start grown 0 live;
      d.buf <- grown
    end;
    d.start <- 0;
    d.stop <- live
  end

let feed_bytes d src off len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Http.feed_bytes";
  reserve d len;
  Bytes.blit src off d.buf d.stop len;
  d.stop <- d.stop + len

let feed d chunk = feed_bytes d (Bytes.unsafe_of_string chunk) 0 (String.length chunk)

(* Consume [n] bytes.  An emptied buffer rewinds, and one that grew
   past [max_idle_capacity] is released. *)
let skip d n =
  d.start <- d.start + n;
  if d.start = d.stop then begin
    d.start <- 0;
    d.stop <- 0;
    if Bytes.length d.buf > max_idle_capacity then
      d.buf <- Bytes.create initial_capacity
  end

(* Consume the next [n] bytes and return them: the one copy a request's
   bytes get in the decoder. *)
let take d n =
  let bytes = Bytes.sub_string d.buf d.start n in
  skip d n;
  bytes

let lowercase_ascii = String.lowercase_ascii

(* Find the end of the head: "\r\n\r\n" (CRLF) or "\n\n" (tolerated
   bare-LF, what a hand-typed netcat session produces).  Returns the
   head's length and its terminator's. *)
let find_head_end d =
  let n = d.stop in
  let is i c = i < n && Bytes.get d.buf i = c in
  let rec go i =
    if i >= n then None
    else if is i '\r' && is (i + 1) '\n' && is (i + 2) '\r' && is (i + 3) '\n' then
      Some (i - d.start, 4)
    else if is i '\n' && is (i + 1) '\n' then Some (i - d.start, 2)
    else go (i + 1)
  in
  go d.start

let split_lines head =
  (* Head lines are CRLF- or LF-terminated; strip the trailing CR. *)
  List.map
    (fun line ->
      let l = String.length line in
      if l > 0 && line.[l - 1] = '\r' then String.sub line 0 (l - 1) else line)
    (String.split_on_char '\n' head)

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when meth <> "" && target <> ""
         && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
      Ok (String.uppercase_ascii meth, target, version)
  | _ -> Error (`Bad_request (Printf.sprintf "malformed request line %S" line))

let parse_header_line line =
  match String.index_opt line ':' with
  | Some i when i > 0 ->
      let name = lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if String.contains name ' ' then
        Error (`Bad_request (Printf.sprintf "whitespace in header name %S" name))
      else Ok (name, value)
  | _ -> Error (`Bad_request (Printf.sprintf "malformed header line %S" line))

(* A body is expected exactly when the request declares one; for the
   methods that conventionally carry one, a missing declaration is 411
   rather than a silently empty body. *)
let body_expected meth = meth = "POST" || meth = "PUT" || meth = "PATCH"

let content_length headers =
  match List.filter (fun (n, _) -> n = "content-length") headers with
  | [] -> Ok None
  | [ (_, v) ] -> (
      (* RFC 9110 §8.6: 1*DIGIT, where int_of_string would also take
         0x10, 0o20, 1_6, +16 or 0u16. *)
      match int_of_string_opt v with
      | Some n when String.for_all (function '0' .. '9' -> true | _ -> false) v ->
          Ok (Some n)
      | _ -> Error (`Bad_request (Printf.sprintf "invalid Content-Length %S" v)))
  | _ :: _ :: _ -> Error (`Bad_request "duplicate Content-Length")

let parse_head d head =
  match split_lines head with
  | [] | [ "" ] -> Error (`Bad_request "empty request head")
  | request_line :: header_lines -> (
      match parse_request_line request_line with
      | Error _ as e -> e
      | Ok (meth, target, version) -> (
          let rec headers acc = function
            | [] -> Ok (List.rev acc)
            | "" :: rest -> headers acc rest
            | line :: rest -> (
                match parse_header_line line with
                | Ok h -> headers (h :: acc) rest
                | Error _ as e -> e)
          in
          match headers [] header_lines with
          | Error _ as e -> e
          | Ok headers -> (
              match content_length headers with
              | Error _ as e -> e
              | Ok None when body_expected meth -> Error `Length_required
              | Ok len -> (
                  let need = Option.value len ~default:0 in
                  if need > d.max_body then Error (`Payload_too_large need)
                  else
                    let path, query = split_target target in
                    Ok
                      ( {
                          meth;
                          target;
                          path;
                          query;
                          version;
                          headers;
                          body = "";
                        },
                        need )))))

let rec next d =
  match d.state with
  | Failed e -> `Error e
  | Head -> (
      match find_head_end d with
      | None ->
          if buffered d > d.max_header then (
            let e = `Bad_request "request head too large" in
            d.state <- Failed e;
            `Error e)
          else `Await
      | Some (length, terminator) -> (
          let head = take d length in
          skip d terminator;
          match parse_head d head with
          | Error e ->
              d.state <- Failed e;
              `Error e
          | Ok (req, 0) -> `Request req
          | Ok (req, need) ->
              d.state <- Body { head = req; need };
              next d))
  | Body { head; need } ->
      if buffered d < need then `Await
      else begin
        let body = take d need in
        d.state <- Head;
        `Request { head with body }
      end

let header req name =
  List.assoc_opt (lowercase_ascii name) req.headers

let query_param req name = List.assoc_opt name req.query

let keep_alive req =
  match header req "connection" with
  | Some v -> lowercase_ascii v <> "close"
  | None -> req.version <> "HTTP/1.0"

(* --- responses ------------------------------------------------------ *)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let day_name = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

let month_name =
  [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun"; "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

let http_date t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT" day_name.(tm.Unix.tm_wday)
    tm.Unix.tm_mday month_name.(tm.Unix.tm_mon) (tm.Unix.tm_year + 1900)
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* The head goes into a small buffer, then head and body into the one
   string that is sent: the body is copied once. *)
let response ?(headers = []) ?(content_type = "application/json") ?date
    ?(close = false) ~status body =
  let date = match date with Some d -> d | None -> http_date (Unix.time ()) in
  let head = Buffer.create 256 in
  Printf.bprintf head "HTTP/1.1 %d %s\r\n" status (status_reason status);
  Printf.bprintf head "Server: umlfront/1.0\r\n";
  Printf.bprintf head "Date: %s\r\n" date;
  Printf.bprintf head "Content-Type: %s\r\n" content_type;
  Printf.bprintf head "Content-Length: %d\r\n" (String.length body);
  List.iter (fun (n, v) -> Printf.bprintf head "%s: %s\r\n" n v) headers;
  Printf.bprintf head "Connection: %s\r\n" (if close then "close" else "keep-alive");
  Buffer.add_string head "\r\n";
  let out = Bytes.create (Buffer.length head + String.length body) in
  Buffer.blit head 0 out 0 (Buffer.length head);
  Bytes.blit_string body 0 out (Buffer.length head) (String.length body);
  Bytes.unsafe_to_string out
