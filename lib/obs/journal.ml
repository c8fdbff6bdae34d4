(* The run journal: an always-on, bounded event stream.

   Every notable runtime fact — flow phase boundaries, structured
   events, executor rounds, channel high-water marks, deadlock victims,
   stall reports — lands here as one entry, cheap enough to leave
   recording unconditionally: an append is a mutex plus an array write
   into a fixed ring.  When the ring wraps, the oldest entries are
   dropped and counted, so the journal of a crashed ten-minute run is
   still the *last* few thousand events, which is the end you want to
   read.

   Entries land in a [sink]; the process-global [default] keeps the
   historical behaviour, and Context swaps the domain-local *current*
   sink so concurrent flows journal independently.

   Serialization is JSON Lines: one entry per line, grep-able, and
   `umlfront journal MODEL` replays/filters it from the CLI. *)

type entry = {
  j_seq : int; (* monotonically increasing, survives ring wrap *)
  j_ts_us : float; (* microseconds since [origin] *)
  j_kind : string; (* dotted event name, e.g. "exec.round" *)
  j_fields : (string * Json.t) list;
}

let default_capacity = 4096

type sink = {
  mutable ring : entry option array;
  mutable next_seq : int;
  mutable dropped : int;
  lock : Mutex.t;
}

(* Every sink stamps against this one process-wide origin (Unix time,
   seconds), so entries of any two sinks compare and a merge keeps the
   newest. *)
let origin = Unix.gettimeofday ()

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "journal: capacity must be >= 1";
  { ring = Array.make capacity None; next_seq = 0; dropped = 0; lock = Mutex.create () }

let default = create ()

let current_key = Domain.DLS.new_key (fun () -> default)

let current () = Domain.DLS.get current_key

let set_current s = Domain.DLS.set current_key s

let capacity () =
  let s = current () in
  Mutex.protect s.lock (fun () -> Array.length s.ring)

let reset () =
  let s = current () in
  Mutex.protect s.lock @@ fun () ->
  Array.fill s.ring 0 (Array.length s.ring) None;
  s.next_seq <- 0;
  s.dropped <- 0

(* Resizing clears: the ring is bookkeeping, not data to migrate. *)
let set_capacity n =
  if n < 1 then invalid_arg "journal: capacity must be >= 1";
  let s = current () in
  Mutex.protect s.lock @@ fun () ->
  s.ring <- Array.make n None;
  s.next_seq <- 0;
  s.dropped <- 0

(* Append directly into [s], bypassing the domain-local current sink —
   what a daemon uses to land access entries in its root journal from
   whichever worker domain handled the request. *)
let record_in s ?(fields = []) kind =
  let ts = (Unix.gettimeofday () -. origin) *. 1e6 in
  Mutex.protect s.lock @@ fun () ->
  let slot = s.next_seq mod Array.length s.ring in
  if s.ring.(slot) <> None then s.dropped <- s.dropped + 1;
  s.ring.(slot) <-
    Some { j_seq = s.next_seq; j_ts_us = ts; j_kind = kind; j_fields = fields };
  s.next_seq <- s.next_seq + 1

let record ?fields kind = record_in (current ()) ?fields kind

let dropped () =
  let s = current () in
  Mutex.protect s.lock (fun () -> s.dropped)

(* Oldest first; the ring is read starting at the slot the next append
   would overwrite.  The caller holds [s.lock]. *)
let ordered s =
  let cap = Array.length s.ring in
  let start = s.next_seq mod cap in
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1)
        (match s.ring.((start + i) mod cap) with Some e -> e :: acc | None -> acc)
  in
  collect (cap - 1) []

let entries_in s = Mutex.protect s.lock (fun () -> ordered s)

let entries () = entries_in (current ())

(* Merge [src]'s entries into [into], re-sequenced in timestamp order
   together with what [into] already holds; when the ring overflows,
   the oldest go.  Physically-equal sinks are skipped, and the
   (ts, kind) sort makes the merge order-independent. *)
let merge ~into src =
  if src != into then begin
    let incoming, drop = Mutex.protect src.lock (fun () -> (ordered src, src.dropped)) in
    Mutex.protect into.lock @@ fun () ->
    let combined =
      List.sort
        (fun a b ->
          match Float.compare a.j_ts_us b.j_ts_us with
          | 0 -> String.compare a.j_kind b.j_kind
          | c -> c)
        (ordered into @ incoming)
    in
    let cap = Array.length into.ring in
    Array.fill into.ring 0 cap None;
    into.next_seq <- 0;
    into.dropped <- into.dropped + drop;
    List.iter
      (fun e ->
        let slot = into.next_seq mod cap in
        if into.ring.(slot) <> None then into.dropped <- into.dropped + 1;
        into.ring.(slot) <- Some { e with j_seq = into.next_seq };
        into.next_seq <- into.next_seq + 1)
      combined
  end

let filter ~kind es =
  List.filter
    (fun e ->
      String.equal e.j_kind kind
      || String.starts_with ~prefix:(kind ^ ".") e.j_kind)
    es

let entry_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.j_seq);
       ("ts_us", Json.Float e.j_ts_us);
       ("kind", Json.String e.j_kind);
     ]
    @ match e.j_fields with [] -> [] | l -> [ ("fields", Json.Obj l) ])

let to_jsonl es =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_json e));
      Buffer.add_char buf '\n')
    es;
  Buffer.contents buf

let write ?kind path =
  let es = entries () in
  let es = match kind with Some k -> filter ~kind:k es | None -> es in
  let oc = open_out path in
  output_string oc (to_jsonl es);
  close_out oc
