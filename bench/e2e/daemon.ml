(* The real daemon as a child process, and the keep-alive HTTP/1.1
   connections the load client drives it over. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

type t = { pid : int; port : int; stdout : Unix.file_descr }

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

(* `--port 0` prints "listening on http://127.0.0.1:PORT" as the first
   stdout line. *)
let read_port fd =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec line () =
    match restart_on_eintr (Unix.select [ fd ] [] []) 30. with
    | [], _, _ -> failwith "daemon: no port line within 30 s"
    | _ -> (
        match restart_on_eintr (Unix.read fd byte 0) 1 with
        | 0 -> failwith "daemon: exited before printing its port"
        | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
        | _ ->
            Buffer.add_bytes buf byte;
            line ())
  in
  let l = line () in
  match String.rindex_opt l ':' with
  | Some i -> int_of_string (String.sub l (i + 1) (String.length l - i - 1))
  | None -> failwith ("daemon: unexpected first line " ^ l)

let spawn ~exe =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let quiet = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--pool"; "2" |]
      null out_w quiet
  in
  Unix.close out_w;
  Unix.close null;
  Unix.close quiet;
  match read_port out_r with
  | port -> { pid; port; stdout = out_r }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (restart_on_eintr (Unix.waitpid []) pid);
      Unix.close out_r;
      raise e

(* SIGTERM, then wait; SIGKILL if it has not exited after [grace]
   seconds.  Callers close their keep-alive connections first: a worker
   blocked reading an idle connection holds the shutdown for the
   daemon's whole read timeout. *)
let stop ?(grace = 20.) d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  let rec wait killed =
    match restart_on_eintr (Unix.waitpid [ Unix.WNOHANG ]) d.pid with
    | 0, _ ->
        if (not killed) && seconds_since t0 > grace then (
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          wait true)
        else (
          Unix.sleepf 0.005;
          wait killed)
    | _ -> ()
  in
  wait false;
  Unix.close d.stdout

let proc_file pid name =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" pid name)
    In_channel.input_all

(* Peak resident set (VmHWM), in MB. *)
let rss_peak_mb d =
  let status = proc_file d.pid "status" in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of a process so far: fields 14 and 15 of
   /proc/PID/stat, counted in USER_HZ (100 on Linux) ticks. *)
let clock_ticks = 100.

let cpu_s pid =
  let stat = proc_file pid "stat" in
  let rest =
    String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  match String.split_on_char ' ' rest with
  | _state :: fields ->
      let f i = float_of_string (List.nth fields i) in
      (f 10 +. f 11) /. clock_ticks
  | [] -> failwith "daemon: malformed /proc stat"

(* --- keep-alive connections ------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (** read buffer; [len] bytes are valid *)
  mutable len : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n = restart_on_eintr (Unix.write_substring fd s off) len in
    write_all fd s (off + n) (len - n)

let fill c =
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  match restart_on_eintr (Unix.read c.fd c.buf c.len) (Bytes.length c.buf - c.len) with
  | 0 -> failwith "connection closed by the daemon"
  | n -> c.len <- c.len + n

let head_end c from =
  let rec go i =
    if i + 3 >= c.len then None
    else if
      Bytes.get c.buf i = '\r'
      && Bytes.get c.buf (i + 1) = '\n'
      && Bytes.get c.buf (i + 2) = '\r'
      && Bytes.get c.buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go from

let content_length head =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
          int_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

(* One request/response exchange: the status and the body. *)
let exchange c ~meth ~target ~body =
  let head =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n"
      meth target (String.length body)
  in
  write_all c.fd head 0 (String.length head);
  write_all c.fd body 0 (String.length body);
  let rec find_head from =
    match head_end c from with
    | Some i -> i
    | None ->
        let scanned = max 0 (c.len - 3) in
        fill c;
        find_head scanned
  in
  let h = find_head 0 in
  let head = Bytes.sub_string c.buf 0 h in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "malformed status line"
  in
  let length =
    match content_length head with
    | Some n -> n
    | None -> failwith "response without Content-Length"
  in
  let total = h + 4 + length in
  while c.len < total do
    fill c
  done;
  let body = Bytes.sub_string c.buf (h + 4) length in
  Bytes.blit c.buf total c.buf 0 (c.len - total);
  c.len <- c.len - total;
  (status, body)

let get c target = exchange c ~meth:"GET" ~target ~body:""

(* The daemon listens before it prints its port, so /healthz answers
   at once; returns the connection it answered on. *)
let healthy d =
  let c = connect d.port in
  match get c "/healthz" with
  | 200, _ -> c
  | status, _ ->
      close c;
      failwith (Printf.sprintf "daemon: /healthz answered %d" status)

(* A counter or gauge value from the OpenMetrics text on /metrics. *)
let metric text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.
