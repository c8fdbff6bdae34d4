(** A minimal, transport-independent HTTP/1.1 codec.

    The decoder is incremental: bytes go in with {!feed} in whatever
    chunks the socket produced (a torn 1-byte-at-a-time read is fine),
    and {!next} yields complete requests one at a time — pipelined
    requests left in the buffer surface on the following {!next}.  The
    codec never touches a file descriptor, which is what lets the test
    suite fuzz it without a socket in sight.

    Deliberate strictness (each pinned by a unit test):
    - header names are case-insensitive and stored lowercased;
    - a request with a body must carry [Content-Length]
      ([`Length_required] — chunked encoding is not supported);
    - duplicate [Content-Length] headers are rejected ([`Bad_request]),
      per RFC 7230 §3.3.2's smuggling concern, and so is one that is not
      all ASCII digits (RFC 9110 §8.6);
    - declared bodies larger than [max_body] are rejected
      ([`Payload_too_large]) before a single body byte is buffered. *)

type request = {
  meth : string;  (** uppercase, e.g. ["POST"] *)
  target : string;  (** the raw request target, e.g. ["/api/lint?file=x"] *)
  path : string;  (** target up to [?], percent-decoded *)
  query : (string * string) list;  (** decoded query pairs, in order *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type error =
  [ `Bad_request of string  (** unparseable request line / headers *)
  | `Length_required  (** body-bearing method without Content-Length *)
  | `Payload_too_large of int  (** declared Content-Length *) ]

val error_status : error -> int
(** 400, 411 or 413. *)

val error_message : error -> string

type decoder

val decoder : ?max_body:int -> ?max_header:int -> unit -> decoder
(** [max_body] (default 8 MiB) bounds the declared Content-Length;
    [max_header] (default 16 KiB) bounds the request head.  An error is
    sticky: once a decoder reports one, the connection is unparseable
    (framing is lost) and must be closed.

    Memory: bytes fed and not yet consumed wait in one buffer.  It
    starts at 4 KiB, and when it must grow it becomes twice what it has
    to hold.  It is kept across requests while it is at most 64 KiB, so
    a keep-alive connection whose requests fit in it stops allocating
    for them; once a larger request has been consumed it goes back to
    4 KiB.  An idle decoder (everything fed was consumed) therefore
    keeps at most 64 KiB. *)

val feed_bytes : decoder -> bytes -> int -> int -> unit
(** [feed_bytes d buf off len] appends [len] raw bytes of [buf] from
    [off], copying them into the decoder: [buf] may be reused at once,
    e.g. as the next read's buffer.
    @raise Invalid_argument if [off] and [len] are not a valid range of
    [buf]. *)

val feed : decoder -> string -> unit
(** [feed d s] is {!feed_bytes} of all of [s]. *)

val next : decoder -> [ `Request of request | `Await | `Error of error ]
(** The next complete request, [`Await] when more bytes are needed. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed — pipelined requests in waiting. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option

val keep_alive : request -> bool
(** False on [Connection: close] (HTTP/1.1 defaults to persistent). *)

(** {1 Responses} *)

val status_reason : int -> string
(** ["OK"], ["Not Found"], …; ["Unknown"] for unregistered codes. *)

val http_date : float -> string
(** IMF-fixdate, e.g. ["Sun, 09 Aug 2026 12:00:00 GMT"]. *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  ?date:string ->
  ?close:bool ->
  status:int ->
  string ->
  string
(** Serialize a full response: status line, [Server]/[Date]/
    [Content-Type]/[Content-Length]/[Connection] headers, the extra
    [headers], a blank line, then the body, copied once into the
    result.  [content_type] defaults to
    ["application/json"], [date] to {!http_date} of now (tests pass a
    fixed date so the bytes pin), [close] picks the [Connection]
    header. *)

(** {1 Percent / query encoding} *)

val percent_decode : string -> string
val split_target : string -> string * (string * string) list
