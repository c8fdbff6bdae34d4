(* LRU over two Hashtbls plus an intrusive doubly-linked recency list:
   O(1) find/add/evict.  The canonical table holds every entry, keyed
   by its key's id; the raw table holds the entries whose filling
   request body is kept, keyed by that body's digest.  Both point at
   the same nodes, so one recency list and one byte bound cover both.
   All state is guarded by one mutex; the critical sections only move
   list pointers, update counters and compare the material a probe
   claims: the options and model bytes of a key, or one request body. *)

type key = { id : string; options : string; model : string }
type value = { status : int; content_type : string; body : string }

type stats = {
  hits : int;
  raw_hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  capacity : int;
}

type node = {
  key : key;
  v : value;
  raw : (string * string) option;  (** the raw key and the request body *)
  size : int;
  mutable prev : node option;  (** towards most-recently-used *)
  mutable next : node option;  (** towards least-recently-used *)
}

(* The request bodies the entries hold, weakly: a body filling entries
   of several endpoints is kept once. *)
module Bodies = Weak.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  max_bytes : int;
  table : (string, node) Hashtbl.t;
  raw_table : (string, node) Hashtbl.t;
  bodies : Bodies.t;
  lock : Mutex.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  mutable hits : int;
  mutable raw_hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~max_bytes =
  {
    max_bytes;
    table = Hashtbl.create 64;
    raw_table = Hashtbl.create 64;
    bodies = Bodies.create 64;
    lock = Mutex.create ();
    mru = None;
    lru = None;
    bytes = 0;
    hits = 0;
    raw_hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Entry cost: the payload, the key's id, options and model bytes, the
   raw key and the request body if kept, plus a fixed allowance for the
   node and table slots.  Each string counts once: a table and its node
   share it. *)
let cost key v raw =
  String.length v.body + String.length key.id + String.length key.options
  + String.length key.model + 64
  +
  match raw with
  | Some (raw_key, request) -> String.length raw_key + String.length request
  | None -> 0

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

(* A node is in the raw table exactly when it carries a raw key, so
   dropping it removes it from both indexes. *)
let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key.id;
  Option.iter (fun (raw_key, _) -> Hashtbl.remove t.raw_table raw_key) n.raw;
  t.bytes <- t.bytes - n.size

let hit t n =
  t.hits <- t.hits + 1;
  unlink t n;
  push_front t n

(* An entry under the probe's id answers only when its material is the
   probe's, so a digest collision costs a miss. *)
let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table key.id with
  | Some n
    when String.equal n.key.options key.options && String.equal n.key.model key.model ->
      hit t n;
      Some n.v
  | Some _ | None ->
      t.misses <- t.misses + 1;
      None

let find_raw t raw_key request =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.raw_table raw_key with
  | Some ({ raw = Some (_, stored); _ } as n) when String.equal stored request ->
      hit t n;
      t.raw_hits <- t.raw_hits + 1;
      Some (n.key.id, n.v)
  | Some _ | None -> None

let add ?raw t key v =
  let size = cost key v raw in
  if size <= t.max_bytes then
    Mutex.protect t.lock @@ fun () ->
    (* Another entry under the same id is this key's older fill or a
       digest collision; under the same raw key, two bodies collided on
       the digest.  Either way the newer one wins the slot. *)
    (match Hashtbl.find_opt t.table key.id with Some old -> drop t old | None -> ());
    Option.iter
      (fun (raw_key, _) ->
        match Hashtbl.find_opt t.raw_table raw_key with
        | Some old -> drop t old
        | None -> ())
      raw;
    let raw =
      Option.map (fun (raw_key, request) -> (raw_key, Bodies.merge t.bodies request)) raw
    in
    let n = { key; v; raw; size; prev = None; next = None } in
    Hashtbl.replace t.table key.id n;
    Option.iter (fun (raw_key, _) -> Hashtbl.replace t.raw_table raw_key n) raw;
    push_front t n;
    t.bytes <- t.bytes + size;
    while t.bytes > t.max_bytes do
      match t.lru with
      | Some victim ->
          drop t victim;
          t.evictions <- t.evictions + 1
      | None -> t.bytes <- 0 (* unreachable: entries account for all bytes *)
    done

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits;
    raw_hits = t.raw_hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    capacity = t.max_bytes;
  }
