(** Content-addressed LRU response cache with two indexes.

    - The {e canonical} index is keyed by a {!key}: the options an
      endpoint reads and the bytes of the parsed model
      ({!Api.cache_key}), under an MD5 [id].  Every entry is in it, and
      requests whose documents parse to the same model share it.
      {!find} answers only when the probe's options and model bytes
      equal the entry's byte for byte, so two keys that share an id
      answer only their own reply.
    - The {e raw} index is keyed by {!Api.raw_key}, a fast digest of
      the request body as it arrived plus the options its endpoint
      reads.  An entry is in it when {!add} was given the request body
      that filled it; {!find_raw} answers only when the probing body
      equals that stored body byte for byte.

    Either way a digest collision costs a miss, never another model's
    answer.  Values are complete response payloads.  Both indexes share
    one recency list and one byte bound: the bound counts each entry's
    payload, its keys (model bytes included) and, when kept, its
    request body, each once, and evicts the least-recently-used entry
    from both indexes at once.  The cache is safe to share across the
    server worker domains (one mutex: lookups are hashing and string
    comparisons, not work).

    Hit/miss/eviction counts accumulate in {!stats}; the server mirrors
    them into its metrics registry so they surface on [/metrics]. *)

type key = {
  id : string;
      (** 32 hex digits, the MD5 of [options] and [model]: what the
          canonical index hashes, and the [model] of the access log *)
  options : string;  (** the endpoint, the options it reads, the strategy *)
  model : string;  (** the bytes of the parsed model *)
}

type value = { status : int; content_type : string; body : string }

type stats = {
  hits : int;  (** by either index *)
  raw_hits : int;  (** the share of [hits] {!find_raw} answered *)
  misses : int;  (** counted by {!find} alone *)
  evictions : int;
  entries : int;
  bytes : int;  (** currently held, request bodies and model bytes included *)
  capacity : int;  (** the byte bound *)
}

type t

val create : max_bytes:int -> t
(** [max_bytes <= 0] disables caching: every lookup misses, nothing is
    stored. *)

val find : t -> key -> value option
(** Look up a canonical key: the entry under its [id] whose options and
    model bytes equal its own.  Bumps the entry to most-recently-used
    and counts a hit; counts a miss when absent or when the entry's
    material differs. *)

val find_raw : t -> string -> string -> (string * value) option
(** [find_raw t raw_key request] is the key [id] and value of the entry
    whose filling request body had [raw_key] and equals [request].  A
    hit bumps the entry and counts a hit (and a raw hit); an absent or
    different body counts nothing, so a caller that falls back to
    {!find} still counts exactly one hit or one miss. *)

val add : ?raw:string * string -> t -> key -> value -> unit
(** Insert (or refresh) the entry of a canonical key and evict LRU
    entries until the bound holds; an older entry under the same [id]
    is replaced, whatever its material.  [raw] is the raw key and the
    request body that filled the entry; given, the entry is in the raw
    index too and the body counts against the bound.  A body that fills
    entries of several endpoints is held once.  An entry larger than the
    whole bound is not stored. *)

val stats : t -> stats
