type response = {
  status : int;
  reason : string;
  headers : (string * string) list;
  body : string;
}

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let read_to_eof fd =
  let buf = Bytes.create 8192 in
  let acc = Buffer.create 8192 in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents acc
    | n ->
        Buffer.add_subbytes acc buf 0 n;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* Parse "HTTP/1.1 200 OK\r\nName: value\r\n...\r\n\r\nbody".  The body
   is everything after the head: the request always said [Connection:
   close], so EOF delimits it (Content-Length is cross-checked when
   present). *)
let parse_response raw =
  let head_end =
    let rec find i =
      if i + 3 >= String.length raw then
        failwith "serve_client: response head not terminated"
      else if String.sub raw i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.sub raw 0 head_end in
  let body = String.sub raw (head_end + 4) (String.length raw - head_end - 4) in
  match String.split_on_char '\n' head with
  | [] -> failwith "serve_client: empty response"
  | status_line :: header_lines ->
      let status_line = String.trim status_line in
      let status, reason =
        match String.split_on_char ' ' status_line with
        | _http :: code :: rest -> (
            match int_of_string_opt code with
            | Some c -> (c, String.concat " " rest)
            | None -> failwith ("serve_client: bad status line: " ^ status_line))
        | _ -> failwith ("serve_client: bad status line: " ^ status_line)
      in
      let headers =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | None -> None
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    ))
          header_lines
      in
      (match List.assoc_opt "content-length" headers with
      | Some n when int_of_string_opt n <> Some (String.length body) ->
          failwith
            (Printf.sprintf
               "serve_client: body length %d does not match Content-Length %s"
               (String.length body) n)
      | _ -> ());
      { status; reason; headers; body }

let request ?(headers = []) ?body ~port ~meth target =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "serve_client: connect to 127.0.0.1:%d failed: %s"
              port (Unix.error_message e)));
      let buf = Buffer.create 512 in
      Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
      Buffer.add_string buf "Host: 127.0.0.1\r\n";
      Buffer.add_string buf "Connection: close\r\n";
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        headers;
      (match body with
      | Some b ->
          Buffer.add_string buf
            (Printf.sprintf "Content-Length: %d\r\n" (String.length b))
      | None -> ());
      Buffer.add_string buf "\r\n";
      Option.iter (Buffer.add_string buf) body;
      let bytes = Buffer.contents buf in
      write_all fd bytes 0 (String.length bytes);
      parse_response (read_to_eof fd))

let get ~port target = request ~port ~meth:"GET" target
let post ?headers ~port target body = request ?headers ~body ~port ~meth:"POST" target

(* --- typed views over the observability surface ---------------------- *)

let request_id r = header r "x-request-id"
let traceparent r = header r "traceparent"

let trace ~port id = get ~port ("/api/trace/" ^ id)
let healthz ~port = get ~port "/healthz"
