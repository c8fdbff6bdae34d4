(* LRU over a Hashtbl plus an intrusive doubly-linked recency list:
   O(1) find/add/evict.  All state is guarded by one mutex; the
   critical sections only move list pointers and update counters. *)

type value = { status : int; content_type : string; body : string }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  capacity : int;
}

type node = {
  key : string;
  v : value;
  size : int;
  mutable prev : node option;  (** towards most-recently-used *)
  mutable next : node option;  (** towards least-recently-used *)
}

type t = {
  max_bytes : int;
  table : (string, node) Hashtbl.t;
  lock : Mutex.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~max_bytes =
  {
    max_bytes;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    mru = None;
    lru = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Entry cost: the payload plus the key stored twice (table + node)
   plus a fixed allowance for the node and table slot. *)
let cost key v = String.length v.body + (2 * String.length key) + 64

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

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.bytes <- t.bytes - n.size

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.v
  | None ->
      t.misses <- t.misses + 1;
      None

let add t key v =
  let size = cost key v in
  if size <= t.max_bytes then
    Mutex.protect t.lock @@ fun () ->
    (match Hashtbl.find_opt t.table key with Some old -> drop t old | None -> ());
    let n = { key; v; size; prev = None; next = None } in
    Hashtbl.replace t.table key n;
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
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    capacity = t.max_bytes;
  }
