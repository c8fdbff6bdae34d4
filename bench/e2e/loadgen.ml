(* The closed-loop load client and the end-to-end run.

   Two client domains (the main one and one spawned), each with one
   keep-alive connection, send the next request only after the reply to
   the previous one arrived — as an editor plugin, a CI job or
   `umlfront top` does.  Latency runs from just before the request is
   written to the last response byte, on the monotonic clock. *)

module D = Daemon

let now = Monotonic_clock.now
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* What one client saw in one phase. *)
type log = {
  mutable lat_ms : float array;
  mutable n : int;
  mutable kept : (int * int * string) list;  (** (request id, status, body) *)
  mutable failures : (int * string) list;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  mutable last_done : int64;
}

let new_log () =
  {
    lat_ms = Array.make 4096 0.;
    n = 0;
    kept = [];
    failures = [];
    req_bytes = 0;
    resp_bytes = 0;
    last_done = 0L;
  }

let push_latency log ms =
  if log.n = Array.length log.lat_ms then begin
    let bigger = Array.make (2 * log.n) 0. in
    Array.blit log.lat_ms 0 bigger 0 log.n;
    log.lat_ms <- bigger
  end;
  log.lat_ms.(log.n) <- ms;
  log.n <- log.n + 1

(* Send stream indices [from, until) over the connections, one client
   domain per connection, stopping early at [deadline].  [judge] sees
   every reply: [`Keep] stores it for a later check, [`Ok]/[`Fail]
   settle it on the spot. *)
let drive ~port conns ~(stream : int -> Workload.request) ~from ~until ~deadline
    ~judge =
  let next = Atomic.make from in
  let client slot =
    let log = new_log () in
    let rec loop () =
      if now () < deadline then
        let i = Atomic.fetch_and_add next 1 in
        if i < until then begin
          let r = stream i in
          let t0 = now () in
          let status, body =
            try D.exchange conns.(slot) ~meth:"POST" ~target:r.Workload.target
                  ~body:r.Workload.body
            with e ->
              D.close conns.(slot);
              conns.(slot) <- D.connect port;
              (0, "transport error: " ^ Printexc.to_string e)
          in
          let t1 = now () in
          push_latency log (ms_between t0 t1);
          log.last_done <- t1;
          log.req_bytes <- log.req_bytes + String.length r.Workload.body;
          log.resp_bytes <- log.resp_bytes + String.length body;
          (match judge r status body with
          | `Keep -> log.kept <- (i, status, body) :: log.kept
          | `Ok -> ()
          | `Fail why -> log.failures <- (i, why) :: log.failures);
          loop ()
        end
    in
    loop ();
    log
  in
  let other = Domain.spawn (fun () -> client 1) in
  let mine = client 0 in
  [ mine; Domain.join other ]

(* Run the full output check over kept replies, on two domains. *)
let check_kept ~stream kept =
  let check (i, status, body) =
    match Check.response (stream i) ~status ~body with
    | Ok () -> None
    | Error why -> Some (i, why)
  in
  let half = List.length kept / 2 in
  let a = List.filteri (fun k _ -> k < half) kept in
  let b = List.filteri (fun k _ -> k >= half) kept in
  let other = Domain.spawn (fun () -> List.filter_map check b) in
  let mine = List.filter_map check a in
  mine @ Domain.join other

(* Send filler requests until the daemon's cache has evicted once,
   i.e. is full, or [limit] requests went out.  Returns (requests sent,
   failures). *)
let fill_cache ~port conns ~filler ~limit =
  let chunk = 200 in
  let judge _ status _ =
    if status = 200 then `Ok else `Fail (Printf.sprintf "fill: status %d" status)
  in
  let rec go from failures =
    let full = D.metric (snd (D.get conns.(0) "/metrics")) "umlfront_serve_cache_evictions" > 0. in
    if full || from >= limit then (from, failures)
    else
      let logs =
        drive ~port conns ~stream:filler ~from ~until:(from + chunk) ~deadline:Int64.max_int ~judge
      in
      go (from + chunk) (List.concat_map (fun (l : log) -> l.failures) logs @ failures)
  in
  go 0 []

let proc_stat_busy () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line in
  match String.split_on_char ' ' (Option.get line) |> List.filter (( <> ) "") with
  | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      let idle = List.nth v 3 +. List.nth v 4 in
      (List.fold_left ( +. ) 0. v -. idle) /. D.clock_ticks
  | _ -> failwith "loadgen: malformed /proc/stat"

let loadavg () =
  In_channel.with_open_bin "/proc/loadavg" In_channel.input_all |> String.trim

let client_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type result = {
  setup_s : float list;  (** one per set-up *)
  measured : int;  (** requests sent in the measured phase *)
  measured_failed : int;  (** of which failed *)
  elapsed_s : float;
  lat_ms : float array;  (** measured-phase latencies, sorted *)
  attempted : int;  (** every request sent, warm-ups and fill included *)
  failures : (int * string) list;
  served : (int, string) Hashtbl.t;  (** id -> body, for the replay sample *)
  hits : float;  (** daemon cache hits during the measured phase *)
  misses : float;
  evictions : float;
  rss_mb : float;  (** the daemon's peak RSS *)
  req_bytes : float;  (** mean per measured request *)
  resp_bytes : float;
  client_cpu_ms_per_req : float;
  other_cpu_share : float;
      (** CPU used by neither the client nor the daemon, as a share of
          the machine during the measured phase *)
  loadavg_start : string;
  loadavg_end : string;
  client_cpu_start_s : float;
  client_cpu_end_s : float;
}

let ncpu = Domain.recommended_domain_count ()

(* Set up [setups] daemons, one after the other: spawn, wait for
   /healthz, send the warm-up — together, one set-up time.  All but the
   last are stopped again.  On the last, a workload that inserts into
   the cache first fills it; then [seconds] (or [count] requests) are
   measured. *)
let run ~exe ~(workload : Workload.t) ~stream ~filler ~fill_limit ~setups ~seconds ~count
    ~sample =
  let client_cpu_start_s = client_cpu_s () in
  let loadavg_start = loadavg () in
  let warmup = workload.Workload.warmup in
  let expected = Array.make warmup "" in
  let failures = ref [] in
  let attempted = ref 0 in
  let served = Hashtbl.create 1024 in
  let settle logs =
    let kept = List.concat_map (fun (l : log) -> l.kept) logs in
    attempted := !attempted + List.fold_left (fun acc (l : log) -> acc + l.n) 0 logs;
    failures :=
      List.concat_map (fun (l : log) -> l.failures) logs @ check_kept ~stream kept @ !failures;
    kept
  in
  let with_daemon f =
    let t0 = now () in
    let d = D.spawn ~exe in
    let opened = ref [||] in
    Fun.protect
      ~finally:(fun () ->
        Array.iter D.close !opened;
        D.stop d)
      (fun () ->
        opened := [| D.healthy d; D.connect d.D.port |];
        let conns = !opened in
        let warm =
          drive ~port:d.D.port conns ~stream ~from:0 ~until:warmup ~deadline:Int64.max_int
            ~judge:(fun _ _ _ -> `Keep)
        in
        let setup = ms_between t0 (now ()) /. 1e3 in
        List.iter
          (fun (i, _, body) ->
            expected.(i) <- body;
            Hashtbl.replace served i body)
          (settle warm);
        (setup, f d conns))
  in
  let setup_s = List.init (setups - 1) (fun _ -> fst (with_daemon (fun _ _ -> ()))) in
  let last, (logs, elapsed_s, client_cpu, other_cpu, delta, rss_mb) =
    with_daemon (fun d conns ->
        if workload.Workload.inserts then begin
          let sent, fill_failures = fill_cache ~port:d.D.port conns ~filler ~limit:fill_limit in
          attempted := !attempted + sent;
          failures := fill_failures @ !failures
        end;
        (* The daemon counts a request after sending its reply.  A worker
           serves its connection in order, so once both connections have
           answered a /healthz, every earlier request is counted. *)
        let metrics () =
          Array.iter (fun c -> ignore (D.get c "/healthz")) conns;
          snd (D.get conns.(0) "/metrics")
        in
        let before = metrics () in
        let judge (r : Workload.request) status body =
          if r.Workload.slot < 0 then `Keep
          else if status = 200 && String.equal body expected.(r.Workload.slot) then `Ok
          else `Fail (Printf.sprintf "status %d, body differs from the primed reply" status)
        in
        let cpu0 = client_cpu_s () and dcpu0 = D.cpu_s d.D.pid in
        let busy0 = proc_stat_busy () in
        let t0 = now () in
        let deadline =
          if count > 0 then Int64.max_int else Int64.add t0 (Int64.of_float (seconds *. 1e9))
        in
        let until = if count > 0 then warmup + count else max_int in
        let logs = drive ~port:d.D.port conns ~stream ~from:warmup ~until ~deadline ~judge in
        let t_end = List.fold_left (fun acc (l : log) -> max acc l.last_done) t0 logs in
        let client_cpu = client_cpu_s () -. cpu0 in
        let daemon_cpu = D.cpu_s d.D.pid -. dcpu0 in
        let other_cpu = Float.max 0. (proc_stat_busy () -. busy0 -. client_cpu -. daemon_cpu) in
        let after = metrics () in
        ( logs,
          ms_between t0 t_end /. 1e3,
          client_cpu,
          other_cpu,
          (fun name -> D.metric after name -. D.metric before name),
          D.rss_peak_mb d ))
  in
  let failed_before = List.length !failures in
  List.iter
    (fun (i, _, body) -> if i < warmup + sample then Hashtbl.replace served i body)
    (settle logs);
  let measured_failed = List.length !failures - failed_before in
  let measured = List.fold_left (fun acc (l : log) -> acc + l.n) 0 logs in
  let lat_ms = Array.concat (List.map (fun (l : log) -> Array.sub l.lat_ms 0 l.n) logs) in
  Array.sort Float.compare lat_ms;
  let per_req x = x /. float_of_int (max 1 measured) in
  let total f = float_of_int (List.fold_left (fun acc (l : log) -> acc + f l) 0 logs) in
  {
    setup_s = setup_s @ [ last ];
    measured;
    measured_failed;
    elapsed_s;
    lat_ms;
    attempted = !attempted;
    failures = !failures;
    served;
    hits = delta "umlfront_serve_cache_hit_total";
    misses = delta "umlfront_serve_cache_miss_total";
    evictions = delta "umlfront_serve_cache_evictions";
    rss_mb;
    req_bytes = per_req (total (fun l -> l.req_bytes));
    resp_bytes = per_req (total (fun l -> l.resp_bytes));
    client_cpu_ms_per_req = per_req (client_cpu *. 1e3);
    other_cpu_share = other_cpu /. (elapsed_s *. float_of_int ncpu);
    loadavg_start;
    loadavg_end = loadavg ();
    client_cpu_start_s;
    client_cpu_end_s = client_cpu_s ();
  }
