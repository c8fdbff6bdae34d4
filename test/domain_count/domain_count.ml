(* Count the domains a serving daemon spawns, through the runtime's own
   lifecycle events.  Only the pool's workers may be domains: the
   acceptor, the SSE pump and the access-log writer are threads of the
   domain that calls [Server.start], so from before [start] to after
   [stop], with an access log on, [--pool N] spawns exactly N domains.
   Runtime events are started here, in an executable of its own, so
   the main suite runs without them. *)

module Server = Umlfront_serve.Server
module Client = Umlfront_serve.Serve_client

(* Domains spawned while [f] runs.  The cursor is read after [f]: read
   while the server is starting, it can miss the last spawn. *)
let spawns_during f =
  let cursor = Runtime_events.create_cursor None in
  let spawns = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~lifecycle:(fun _ring _ts event _ ->
        if event = Runtime_events.EV_DOMAIN_SPAWN then incr spawns)
      ()
  in
  ignore (Runtime_events.read_poll cursor callbacks None);
  spawns := 0;
  f ();
  ignore (Runtime_events.read_poll cursor callbacks None);
  Runtime_events.free_cursor cursor;
  !spawns

let serve_once ~pool =
  let log = Filename.temp_file "umlfront_domains" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let config =
    { Server.default_config with Server.port = 0; pool; access_log = Some log }
  in
  spawns_during (fun () ->
      let server = Server.start ~config () in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let r = Client.healthz ~port:(Server.port server) in
      if r.Client.status <> 200 then
        failwith (Printf.sprintf "pool %d: /healthz answered %d" pool r.Client.status))

(* A failure is reported and answered with [exit]: unlike an uncaught
   exception, [exit] lets the runtime remove its [<pid>.events] file. *)
let check pool =
  match serve_once ~pool with
  | spawned when spawned = pool ->
      Printf.printf "--pool %d with an access log: %d domains spawned\n" pool spawned;
      true
  | spawned ->
      Printf.eprintf "--pool %d with an access log spawned %d domains, expected %d\n"
        pool spawned pool;
      false
  | exception e ->
      Printf.eprintf "--pool %d: %s\n" pool (Printexc.to_string e);
      false

let () =
  Runtime_events.start ();
  let results = List.map check [ 2; 0 ] in
  exit (if List.for_all Fun.id results then 0 else 1)
