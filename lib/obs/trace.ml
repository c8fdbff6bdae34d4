(* Flow-wide spans serializing to Chrome trace-event JSON
   (chrome://tracing / Perfetto "Complete" events).

   Spans land in a [sink].  The process-global [default] sink keeps the
   historical behaviour; [Context] (see context.ml) swaps the
   domain-local *current* sink so concurrent flows each get their own
   isolated span buffer.  The sink is off by default; [with_span] costs
   one branch when it is disabled, so instrumentation can stay in hot
   paths permanently.  Timestamps are microseconds relative to
   [enable ()], wall clock.  Each span also records the bytes allocated
   on the OCaml heap while it was open ("alloc_bytes" arg), which is
   what "where does the time go" usually turns into on a 10k-block
   model.

   Every event carries a unique span id and the id of its parent span
   (the innermost span open *on the same domain* when it started), so
   consumers can rebuild the full trace tree instead of guessing from
   timestamps.  A sink may be shared by every domain: instrumented
   passes run on Umlfront_parallel worker domains, so all mutable sink
   state is guarded by a per-sink mutex, and the open-span stack is
   kept per domain.  Each event records the emitting domain and exports
   it as the Chrome-trace "tid", which gives per-domain lanes in
   Perfetto for free. *)

type event = {
  ev_id : int; (* unique span id, process-wide *)
  ev_parent : int; (* id of the enclosing span; -1 for roots *)
  ev_name : string;
  ev_cat : string;
  ev_ph : char; (* 'X' complete, 'i' instant *)
  ev_ts : float; (* microseconds since enable *)
  ev_dur : float; (* microseconds; 0 for instants *)
  ev_tid : int; (* 1 + emitting domain id; the main domain is tid 1 *)
  ev_args : (string * Json.t) list;
}

type sink = {
  mutable on : bool;
  mutable t0 : float; (* Unix time at enable, seconds *)
  mutable events : event list; (* newest first *)
  stacks : (int, int list) Hashtbl.t; (* domain id -> open span ids, innermost first *)
  mutable root_parent : int; (* parent id for otherwise-parentless spans; -1 at top level *)
  mutable process_name : string option; (* Chrome process_name metadata, if set *)
  mutable n_buffered : int;
  mutable buffer_hwm : int; (* high-water mark of buffered events, sink lifetime *)
  mutable nesting_hwm : int; (* high-water mark of span nesting depth *)
  lock : Mutex.t;
}

(* Span ids are drawn from one process-wide counter so events merged
   across sinks (per-domain forks, see Context.merge) keep unique ids
   and intact parent links. *)
let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

let create ?(on = false) () =
  {
    on;
    t0 = (if on then Unix.gettimeofday () else 0.0);
    events = [];
    stacks = Hashtbl.create 8;
    root_parent = -1;
    process_name = None;
    n_buffered = 0;
    buffer_hwm = 0;
    nesting_hwm = 0;
    lock = Mutex.create ();
  }

(* The process-global sink: what every call lands in unless a Context
   has installed a different current sink on this domain. *)
let default = create ()

let current_key = Domain.DLS.new_key (fun () -> default)

let current () = Domain.DLS.get current_key

let set_current s = Domain.DLS.set current_key s

let tid () = 1 + (Domain.self () :> int)

let now_us_in s = (Unix.gettimeofday () -. s.t0) *. 1e6

let now_us () = now_us_in (current ())

let enabled () = (current ()).on

let reset () =
  let s = current () in
  Mutex.protect s.lock @@ fun () ->
  s.events <- [];
  s.n_buffered <- 0;
  s.process_name <- None;
  Hashtbl.reset s.stacks

let enable () =
  let s = current () in
  if not s.on then (
    s.on <- true;
    s.t0 <- Unix.gettimeofday ());
  reset ()

let disable () = (current ()).on <- false

let set_process_name name = (current ()).process_name <- Some name

let stack_of s =
  match Hashtbl.find_opt s.stacks (Domain.self () :> int) with
  | Some st -> st
  | None -> []

let set_stack s st = Hashtbl.replace s.stacks (Domain.self () :> int) st

let depth () =
  let s = current () in
  Mutex.protect s.lock (fun () -> List.length (stack_of s))

(* Innermost open span id on this domain, or the sink's inherited root:
   the parent a new child span (or a forked child sink) should attach
   under. *)
let innermost () =
  let s = current () in
  Mutex.protect s.lock @@ fun () ->
  match stack_of s with id :: _ -> id | [] -> s.root_parent

let events_in s = Mutex.protect s.lock (fun () -> List.rev s.events)

let events () = events_in (current ())

let buffer_hwm () = (current ()).buffer_hwm

let nesting_hwm () = (current ()).nesting_hwm

let record_in s ev =
  Mutex.protect s.lock (fun () ->
      s.events <- ev :: s.events;
      s.n_buffered <- s.n_buffered + 1;
      if s.n_buffered > s.buffer_hwm then s.buffer_hwm <- s.n_buffered)

let record ev = record_in (current ()) ev

let instant ?(cat = "event") ?(args = []) name =
  let s = current () in
  if s.on then
    let parent = innermost () in
    record_in s
      { ev_id = fresh_id (); ev_parent = parent; ev_name = name; ev_cat = cat;
        ev_ph = 'i'; ev_ts = now_us_in s; ev_dur = 0.0; ev_tid = tid (); ev_args = args }

(* [args] is a thunk so that argument computation (block counts, etc.)
   costs nothing when the sink is disabled.  The body runs under
   [Fun.protect]: a raising phase still pops the span stack and records
   its Complete event (with an "error" arg), so the exported Chrome
   trace stays well-formed — no dangling open span, no depth drift.
   A raising [args] thunk must not leak the span either, so the pop is
   itself protected.  The sink is captured at open so a context switch
   inside [f] cannot split a span across two sinks. *)
let with_span ?(cat = "span") ?args name f =
  let s = current () in
  if not s.on then f ()
  else begin
    let ts = now_us_in s in
    let alloc0 = Gc.allocated_bytes () in
    let id = fresh_id () in
    let parent =
      Mutex.protect s.lock (fun () ->
          let st = stack_of s in
          let parent = match st with p :: _ -> p | [] -> s.root_parent in
          set_stack s (id :: st);
          let d = List.length st + 1 in
          if d > s.nesting_hwm then s.nesting_hwm <- d;
          parent)
    in
    let error = ref None in
    let close () =
      let extra =
        match !error with
        | Some e -> [ ("error", Json.String (Printexc.to_string e)) ]
        | None -> []
      in
      let alloc = Gc.allocated_bytes () -. alloc0 in
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect s.lock (fun () ->
              set_stack s (match stack_of s with _ :: rest -> rest | [] -> [])))
        (fun () ->
          let computed = match args with Some g -> g () | None -> [] in
          record_in s
            {
              ev_id = id;
              ev_parent = parent;
              ev_name = name;
              ev_cat = cat;
              ev_ph = 'X';
              ev_ts = ts;
              ev_dur = now_us_in s -. ts;
              ev_tid = tid ();
              ev_args = (("alloc_bytes", Json.Float alloc) :: computed) @ extra;
            })
    in
    Fun.protect ~finally:close (fun () ->
        try f ()
        with e ->
          error := Some e;
          raise e)
  end

(* A child sink for one worker domain of a pool batch: shares the
   parent's clock and on/off switch, and roots otherwise-parentless
   spans under the span that was open where the batch was submitted, so
   merged events form one tree. *)
let fork ~root_parent parent =
  let child = create () in
  child.on <- parent.on;
  child.t0 <- parent.t0;
  child.root_parent <- root_parent;
  child

let event_order a b =
  match Float.compare a.ev_ts b.ev_ts with 0 -> compare a.ev_id b.ev_id | c -> c

(* Merge child sinks' events into [into].  Physically-equal sinks and
   aliased buffers are skipped, so absorbing is idempotent per child.
   The combined buffer is re-sorted by (ts, id), which makes the merge
   independent of the order children are given in. *)
let absorb ~into children =
  let fresh =
    List.concat_map
      (fun c -> if c == into then [] else Mutex.protect c.lock (fun () -> c.events))
      children
  in
  if fresh <> [] then
    Mutex.protect into.lock (fun () ->
        into.events <- List.sort (fun a b -> event_order b a) (fresh @ into.events);
        into.n_buffered <- into.n_buffered + List.length fresh;
        if into.n_buffered > into.buffer_hwm then into.buffer_hwm <- into.n_buffered);
  List.iter
    (fun c ->
      if c != into then begin
        if c.nesting_hwm > into.nesting_hwm then into.nesting_hwm <- c.nesting_hwm
      end)
    children

(* Duration of the most recent complete span with [name], in
   microseconds.  Used by the bench harness to pull per-phase timings
   back out of the sink. *)
let last_dur_us name =
  let s = current () in
  let rec find = function
    | [] -> None
    | ev :: rest ->
        if ev.ev_ph = 'X' && String.equal ev.ev_name name then Some ev.ev_dur else find rest
  in
  Mutex.protect s.lock (fun () -> find s.events)

let event_json ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ph", Json.String (String.make 1 ev.ev_ph));
      ("ts", Json.Float ev.ev_ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let dur = if ev.ev_ph = 'X' then [ ("dur", Json.Float ev.ev_dur) ] else [] in
  let args = match ev.ev_args with [] -> [] | l -> [ ("args", Json.Obj l) ] in
  Json.Obj (base @ dur @ args)

(* Chrome metadata events (ph "M") labeling the process track with the
   model name and each domain track with its domain id.  Only emitted
   when there is something to label — a process name was set, or spans
   ran on more than the main domain — so single-domain traces without a
   model name keep exactly their span events. *)
let metadata_json s sorted =
  let tids = List.sort_uniq compare (List.map (fun ev -> ev.ev_tid) sorted) in
  let meta name tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let process =
    match s.process_name with
    | Some n -> [ meta "process_name" 1 [ ("name", Json.String n) ] ]
    | None -> []
  in
  let multi_domain = match tids with [] | [ 1 ] -> false | _ -> true in
  let threads =
    if process = [] && not multi_domain then []
    else
      List.map
        (fun tid ->
          let label = if tid = 1 then "main" else Printf.sprintf "domain %d" (tid - 1) in
          meta "thread_name" tid [ ("name", Json.String label) ])
        tids
  in
  process @ threads

(* Chrome trace "object format": the required traceEvents array plus
   otherData carrying a metrics snapshot, which Perfetto ignores and
   humans (and the bench harness) read. *)
let to_json ?(metrics = []) () =
  let s = current () in
  let sorted = List.sort event_order (events_in s) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (metadata_json s sorted @ List.map event_json sorted) );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("tool", Json.String "umlfront");
            ("metrics", Metrics.to_json metrics);
          ] );
    ]

let to_string ?metrics () = Json.to_string (to_json ?metrics ())

let write ?metrics path =
  let oc = open_out path in
  output_string oc (to_string ?metrics ());
  output_char oc '\n';
  close_out oc
