(* Causal token tracing: every token crossing a dataflow channel can
   carry an identity and a provenance — which block produced it, on
   which firing, over which channel, in which round.  The executors
   (Exec.run, Compiled.run sequential or work-stealing, Kpn.run)
   report into this sink when it is enabled; everything here costs one
   branch per token when it is off, so the instrumentation lives in
   the hot paths permanently, like Trace.

   What the sink maintains:
   - a bounded ring of tokens (provenance + produce/consume
     timestamps), oldest dropped first, allocated on the first
     [produce] so that an armed sink no executor feeds stays small;
   - per-channel statistics: produced/consumed counts, current
     occupancy, high-water mark (and the round it was reached), plus
     a bounded occupancy timeline for plotting;
   - FIFO pending queues so a consume matches the oldest outstanding
     token of its channel, mirroring FIFO channel semantics.

   Exports: Chrome trace "flow" events (ph "s"/"f" pairs bound by
   token id — open next to a Trace profile in Perfetto and the token
   arrows overlay the spans) and a DOT causal flow graph aggregated
   per (producer, consumer, channel). *)

type provenance = {
  token_id : int;
  token_channel : string; (* e.g. "src/1->dst/2" *)
  token_src : string; (* producing block/actor *)
  token_src_firing : int; (* 1-based firing index of the producer *)
  token_dst : string; (* consuming block/actor ("" when unknown) *)
  token_round : int; (* SDF round, -1 outside round-based execution *)
  token_protocols : string list; (* channel protocols crossed (GFIFO, ...) *)
}

type token = {
  prov : provenance;
  produced_us : float;
  mutable consumed_us : float; (* nan until consumed *)
}

type channel_stat = {
  chan_name : string;
  chan_produced : int;
  chan_consumed : int;
  chan_occupancy : int; (* produced - consumed right now *)
  chan_hwm : int; (* occupancy high-water mark *)
  chan_hwm_round : int; (* round in which the hwm was reached *)
  chan_protocols : string list;
}

let max_tokens = 65_536
let max_timeline = 512

type chan = {
  mutable c_produced : int;
  mutable c_consumed : int;
  mutable c_occ : int;
  mutable c_hwm : int;
  mutable c_hwm_round : int;
  mutable c_protocols : string list;
  c_pending : token Queue.t;
  mutable c_timeline : (float * int) list; (* newest first, bounded *)
  mutable c_timeline_len : int;
}

type sink = {
  mutable on : bool;
  mutable ring : token option array; (* [||] until the first produce *)
  mutable next_id : int;
  mutable dropped : int;
  channels : (string, chan) Hashtbl.t;
  mutable channel_names : string list; (* registration order, newest first *)
  lock : Mutex.t;
}

let create ?(on = false) () =
  {
    on;
    ring = [||];
    next_id = 0;
    dropped = 0;
    channels = Hashtbl.create 64;
    channel_names = [];
    lock = Mutex.create ();
  }

(* The process-global sink; Context swaps the domain-local current sink
   so concurrent flows trace tokens independently. *)
let default = create ()

let current_key = Domain.DLS.new_key (fun () -> default)

let current () = Domain.DLS.get current_key

let set_current s = Domain.DLS.set current_key s

let with_sink f =
  let s = current () in
  Mutex.protect s.lock (fun () -> f s)

let enabled () = (current ()).on

let reset () =
  with_sink @@ fun sink ->
  sink.ring <- [||];
  sink.next_id <- 0;
  sink.dropped <- 0;
  Hashtbl.reset sink.channels;
  sink.channel_names <- []

let enable () =
  (current ()).on <- true;
  reset ()

let disable () = (current ()).on <- false

let chan_of sink name =
  match Hashtbl.find_opt sink.channels name with
  | Some c -> c
  | None ->
      let c =
        {
          c_produced = 0;
          c_consumed = 0;
          c_occ = 0;
          c_hwm = 0;
          c_hwm_round = -1;
          c_protocols = [];
          c_pending = Queue.create ();
          c_timeline = [];
          c_timeline_len = 0;
        }
      in
      Hashtbl.replace sink.channels name c;
      sink.channel_names <- name :: sink.channel_names;
      c

let timeline_push c ts occ =
  if c.c_timeline_len < max_timeline then (
    c.c_timeline <- (ts, occ) :: c.c_timeline;
    c.c_timeline_len <- c.c_timeline_len + 1)

(* [produce] returns the token id so a caller that knows its consumer
   eagerly (the SDF executor) can hand it straight to [consume]. *)
let produce ?(protocols = []) ?(round = -1) ?(dst = "") ~src ~firing channel =
  let ts = Trace.now_us () in
  with_sink @@ fun sink ->
  let id = sink.next_id in
  sink.next_id <- id + 1;
  let tok =
    {
      prov =
        {
          token_id = id;
          token_channel = channel;
          token_src = src;
          token_src_firing = firing;
          token_dst = dst;
          token_round = round;
          token_protocols = protocols;
        };
      produced_us = ts;
      consumed_us = Float.nan;
    }
  in
  if Array.length sink.ring = 0 then sink.ring <- Array.make max_tokens None;
  let slot = id mod max_tokens in
  if sink.ring.(slot) <> None then sink.dropped <- sink.dropped + 1;
  sink.ring.(slot) <- Some tok;
  let c = chan_of sink channel in
  if protocols <> [] && c.c_protocols = [] then c.c_protocols <- protocols;
  c.c_produced <- c.c_produced + 1;
  c.c_occ <- c.c_occ + 1;
  if c.c_occ > c.c_hwm then (
    c.c_hwm <- c.c_occ;
    c.c_hwm_round <- round);
  timeline_push c ts c.c_occ;
  Queue.push tok c.c_pending;
  id

(* Consume the oldest outstanding token of [channel] (FIFO, like the
   channels themselves); returns its provenance when the sink knows
   one.  [by] names the consuming block for flow-graph edges whose
   producer did not know its destination. *)
let consume ?by channel =
  let ts = Trace.now_us () in
  with_sink @@ fun sink ->
  let c = chan_of sink channel in
  c.c_consumed <- c.c_consumed + 1;
  if c.c_occ > 0 then c.c_occ <- c.c_occ - 1;
  timeline_push c ts c.c_occ;
  match Queue.take_opt c.c_pending with
  | None -> None
  | Some tok ->
      tok.consumed_us <- ts;
      let prov =
        match by with
        | Some dst when tok.prov.token_dst = "" ->
            { tok.prov with token_dst = dst }
        | _ -> tok.prov
      in
      (* The ring holds the same token value; patch the recorded
         destination too so exports see it. *)
      let slot = tok.prov.token_id mod max_tokens in
      (match sink.ring.(slot) with
      | Some t when t.prov.token_id = tok.prov.token_id && t.prov <> prov ->
          sink.ring.(slot) <- Some { t with prov }
      | _ -> ());
      Some prov

let dropped () = with_sink (fun sink -> sink.dropped)

(* Oldest first. *)
let tokens () =
  with_sink @@ fun sink ->
  let cap = Array.length sink.ring in
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1)
        (match sink.ring.((sink.next_id + i) mod cap) with
        | Some t -> t :: acc
        | None -> acc)
  in
  collect (cap - 1) []

let channels () =
  with_sink @@ fun sink ->
  List.map
    (fun name ->
      let c = Hashtbl.find sink.channels name in
      {
        chan_name = name;
        chan_produced = c.c_produced;
        chan_consumed = c.c_consumed;
        chan_occupancy = c.c_occ;
        chan_hwm = c.c_hwm;
        chan_hwm_round = c.c_hwm_round;
        chan_protocols = c.c_protocols;
      })
    (List.sort String.compare sink.channel_names)

let occupancy_timeline channel =
  with_sink @@ fun sink ->
  match Hashtbl.find_opt sink.channels channel with
  | None -> []
  | Some c -> List.rev c.c_timeline

(* The earliest recorded token that crossed [channel] in [round] —
   what a conformance divergence report asks for. *)
let token_at ~channel ~round =
  List.find_map
    (fun t ->
      if String.equal t.prov.token_channel channel && t.prov.token_round = round
      then Some t.prov
      else None)
    (tokens ())

(* --- exports -------------------------------------------------------- *)

let provenance_json p =
  Json.Obj
    [
      ("id", Json.Int p.token_id);
      ("channel", Json.String p.token_channel);
      ("src", Json.String p.token_src);
      ("src_firing", Json.Int p.token_src_firing);
      ("dst", Json.String p.token_dst);
      ("round", Json.Int p.token_round);
      ("protocols", Json.List (List.map (fun s -> Json.String s) p.token_protocols));
    ]

(* Chrome trace flow events: a "s"(tart) at production, a "f"(inish,
   binding point "e"nclosing) at consumption, bound by (cat, id).
   Unconsumed tokens export only their start — Perfetto renders them
   as dangling arrows, which is exactly what an unconsumed token is. *)
let flow_events () =
  List.concat_map
    (fun t ->
      let base ph ts =
        [
          ("name", Json.String t.prov.token_channel);
          ("cat", Json.String "token");
          ("ph", Json.String ph);
          ("id", Json.Int t.prov.token_id);
          ("ts", Json.Float ts);
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
        ]
      in
      let start =
        Json.Obj
          (base "s" t.produced_us
          @ [ ("args", provenance_json t.prov) ])
      in
      if Float.is_nan t.consumed_us then [ start ]
      else
        [
          start;
          Json.Obj (base "f" t.consumed_us @ [ ("bp", Json.String "e") ]);
        ])
    (tokens ())

let channel_json (s : channel_stat) =
  Json.Obj
    [
      ("channel", Json.String s.chan_name);
      ("produced", Json.Int s.chan_produced);
      ("consumed", Json.Int s.chan_consumed);
      ("occupancy", Json.Int s.chan_occupancy);
      ("high_water", Json.Int s.chan_hwm);
      ("high_water_round", Json.Int s.chan_hwm_round);
      ( "protocols",
        Json.List (List.map (fun p -> Json.String p) s.chan_protocols) );
    ]

let to_json () =
  let chans = channels () in
  Json.Obj
    [
      ("channels", Json.List (List.map channel_json chans));
      ( "timelines",
        Json.Obj
          (List.map
             (fun s ->
               ( s.chan_name,
                 Json.List
                   (List.map
                      (fun (ts, occ) -> Json.List [ Json.Float ts; Json.Int occ ])
                      (occupancy_timeline s.chan_name)) ))
             chans) );
      ("flowEvents", Json.List (flow_events ()));
      ("droppedTokens", Json.Int (dropped ()));
    ]

let quote_dot s =
  "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

(* Causal flow graph: blocks as nodes, one edge per (producer,
   consumer, channel) with the token count as label.  Tokens whose
   consumer is unknown flow into a synthetic "?" sink. *)
let flow_dot () =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun t ->
      let dst = if t.prov.token_dst = "" then "?" else t.prov.token_dst in
      let key = (t.prov.token_src, dst, t.prov.token_channel, t.prov.token_protocols) in
      match Hashtbl.find_opt tbl key with
      | Some n -> Hashtbl.replace tbl key (n + 1)
      | None ->
          Hashtbl.replace tbl key 1;
          order := key :: !order)
    (tokens ());
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph token_flow {\n  rankdir=LR;\n  node [shape=box];\n";
  List.iter
    (fun ((src, dst, channel, protocols) as key) ->
      let n = Hashtbl.find tbl key in
      let label =
        Printf.sprintf "%s%s ×%d" channel
          (match protocols with [] -> "" | l -> " [" ^ String.concat "," l ^ "]")
          n
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=%s];\n" (quote_dot src) (quote_dot dst)
           (quote_dot label)))
    (List.rev !order);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
