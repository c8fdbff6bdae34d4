(* The [GET /events] broadcast hub: one pump domain owns every SSE
   subscriber socket, so the request path never writes to (or waits
   on) a streaming peer.

   [publish] appends a pre-rendered frame to each subscriber's bounded
   outbox under the hub mutex — string append, no syscall — and, when
   it appended anything, pokes the pump through a self-pipe.  The pump
   multiplexes with [Unix.select] (OCaml's [Condition] has no timed
   wait; the self-pipe gives wakeups, the select timeout gives the
   heartbeat): flushes outboxes through non-blocking writes ([EAGAIN]
   keeps the bytes for later, a torn peer is closed and dropped), reads
   subscriber sockets only to notice EOF, and on every heartbeat
   interval broadcasts the frame the [heartbeat] callback renders — a
   fresh window snapshot, so an idle server still streams state and a
   curl with a timeout always has something to read.

   A subscriber whose outbox is full (a consumer that stopped reading)
   loses frames, counted in [dropped] — same telemetry contract as the
   access log: lose an event, never stall a request. *)

type sub = {
  fd : Unix.file_descr;
  mutable outbox : string; (* bytes accepted but not yet written *)
}

type t = {
  max_subs : int;
  max_outbox : int;
  heartbeat_s : float;
  heartbeat : unit -> string;
  mutable subs : sub list;
  mutable dropped : int;
  mutable stopping : bool;
  lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable pump : unit Domain.t option;
}

let wake t =
  match Unix.write_substring t.wake_w "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> () (* pipe full: pump is awake anyway *)

let subscribers t = Mutex.protect t.lock (fun () -> List.length t.subs)
let dropped t = Mutex.protect t.lock (fun () -> t.dropped)

(* Claim [fd] for the hub (the connection handler must not close it
   afterwards); [greeting] is the first payload — response head plus
   hello frame.  Refuses past [max_subs]. *)
let subscribe t fd ~greeting =
  let accepted =
    Mutex.protect t.lock @@ fun () ->
    if t.stopping || List.length t.subs >= t.max_subs then false
    else begin
      t.subs <- { fd; outbox = greeting } :: t.subs;
      true
    end
  in
  if accepted then begin
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    wake t
  end;
  accepted

(* Append [frame] to every outbox; full outboxes drop the frame (and
   count it).  Returns how many subscribers dropped it.  The pump is
   woken only when an outbox grew: with no subscriber, publishing is a
   lock and an empty list. *)
let publish t frame =
  let appended = ref 0 and drops = ref 0 in
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun sub ->
          if String.length sub.outbox + String.length frame > t.max_outbox then begin
            t.dropped <- t.dropped + 1;
            incr drops
          end
          else begin
            sub.outbox <- sub.outbox ^ frame;
            incr appended
          end)
        t.subs);
  if !appended > 0 then wake t;
  !drops

(* --- the pump domain -------------------------------------------------- *)

let close_sub sub = try Unix.close sub.fd with Unix.Unix_error _ -> ()

let flush_sub t sub =
  let bytes = Mutex.protect t.lock (fun () -> sub.outbox) in
  if bytes = "" then true
  else
    match Unix.write_substring sub.fd bytes 0 (String.length bytes) with
    | n ->
        Mutex.protect t.lock (fun () ->
            (* Concurrent publishes only ever append, so dropping the
               written prefix is safe. *)
            sub.outbox <-
              String.sub sub.outbox n (String.length sub.outbox - n));
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        true
    | exception Unix.Unix_error (_, _, _) -> false

(* A readable SSE subscriber either closed (EOF) or sent bytes we have
   no use for; only EOF/errors matter. *)
let sub_gone sub =
  let junk = Bytes.create 512 in
  match Unix.read sub.fd junk 0 512 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      false
  | exception Unix.Unix_error (_, _, _) -> true

let pump_loop t =
  let junk = Bytes.create 64 in
  let next_beat = ref (Unix.gettimeofday () +. t.heartbeat_s) in
  let rec loop () =
    let subs = Mutex.protect t.lock (fun () -> t.subs) in
    let want_write =
      List.filter_map
        (fun sub -> if sub.outbox = "" then None else Some sub.fd)
        subs
    in
    let all = List.map (fun sub -> sub.fd) subs in
    let timeout = Float.max 0.02 (!next_beat -. Unix.gettimeofday ()) in
    let readable, writable =
      match Unix.select (t.wake_r :: all) want_write [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
    in
    if List.mem t.wake_r readable then (
      try ignore (Unix.read t.wake_r junk 0 64) with Unix.Unix_error _ -> ());
    let dead =
      List.filter
        (fun sub ->
          (List.mem sub.fd readable && sub_gone sub)
          || (List.mem sub.fd writable && not (flush_sub t sub)))
        subs
    in
    if dead <> [] then begin
      Mutex.protect t.lock (fun () ->
          t.subs <- List.filter (fun s -> not (List.memq s dead)) t.subs);
      List.iter close_sub dead
    end;
    let now = Unix.gettimeofday () in
    if now >= !next_beat then begin
      next_beat := now +. t.heartbeat_s;
      ignore (publish t (t.heartbeat ()))
    end;
    if not (Mutex.protect t.lock (fun () -> t.stopping)) then loop ()
  in
  loop ()

let create ?(max_subs = 32) ?(max_outbox = 256 * 1024) ?(heartbeat_s = 2.0)
    ~heartbeat () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (try Unix.set_nonblock wake_w with Unix.Unix_error _ -> ());
  (try Unix.set_nonblock wake_r with Unix.Unix_error _ -> ());
  let t =
    {
      max_subs;
      max_outbox;
      heartbeat_s;
      heartbeat;
      subs = [];
      dropped = 0;
      stopping = false;
      lock = Mutex.create ();
      wake_r;
      wake_w;
      pump = None;
    }
  in
  t.pump <- Some (Domain.spawn (fun () -> pump_loop t));
  t

let stop t =
  let had_pump =
    Mutex.protect t.lock @@ fun () ->
    if t.stopping then None
    else begin
      t.stopping <- true;
      let p = t.pump in
      t.pump <- None;
      Some p
    end
  in
  match had_pump with
  | None -> ()
  | Some pump ->
      wake t;
      (match pump with Some d -> Domain.join d | None -> ());
      let subs = Mutex.protect t.lock (fun () -> let s = t.subs in t.subs <- []; s) in
      List.iter close_sub subs;
      (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close t.wake_w with Unix.Unix_error _ -> ())
