(** A minimal in-repo HTTP client for [umlfront serve] — the test
    suite's view of the server, over the loopback.

    Deliberately boring: one request per connection ([Connection:
    close] is always sent), blocking reads to EOF, no TLS, no
    redirects.  Anything cleverer (keep-alive, pipelining, torn writes)
    the tests do on a raw socket so the failure modes stay visible. *)

type response = {
  status : int;
  reason : string;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

val request :
  ?headers:(string * string) list ->
  ?body:string ->
  port:int ->
  meth:string ->
  string ->
  response
(** [request ~port ~meth target] against [127.0.0.1:port].  [target]
    is the raw request target (path plus optional query, already
    encoded).  A [body] adds [Content-Length].

    @raise Failure on connection failure or an unparseable response. *)

val get : port:int -> string -> response
val post : ?headers:(string * string) list -> port:int -> string -> string -> response
(** [post ~port target body]. *)

val header : response -> string -> string option
(** Case-insensitive lookup. *)

val request_id : response -> string option
(** The [X-Request-Id] header. *)

val traceparent : response -> string option
(** The W3C [traceparent] echoed by the server. *)

val healthz : port:int -> response

val trace : port:int -> string -> response
(** [trace ~port id] fetches [GET /api/trace/id] — the retained
    Chrome-trace JSON of a sampled or [?trace=1] request. *)
