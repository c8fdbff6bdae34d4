(** Model-to-text support: an indentation-tracking emitter and the
    identifier namer shared by the code generators (step 4 of the
    mapping flow produces text from the optimized model). *)

type t

val create : ?indent_step:int -> unit -> t
val line : t -> ('a, unit, string, unit) format4 -> 'a
val blank : t -> unit
val raw : t -> string -> unit
(** Append without newline or indentation. *)

val indented : t -> (unit -> unit) -> unit
(** Run the thunk with one extra indent level. *)

val block : t -> opener:string -> closer:string -> (unit -> unit) -> unit
(** [line opener]; indented body; [line closer]. *)

val contents : t -> string

(** {1 Identifiers} *)

val sanitize : string -> string
(** Map an arbitrary name to an identifier of C, Java and OCaml: every
    byte outside [[A-Za-z0-9]] becomes [_], and an empty result or one
    that starts with a digit gets an [x] prefix.  The mapping alone is
    lossy (["a.b"] and ["a_b"] both yield ["a_b"]). *)

val make_namer : (string -> string) -> string -> string
(** [make_namer spell] is a fresh namespace that names each raw name
    [spell raw], deduplicated on that final spelling: the first name to
    claim a spelling keeps it, later claimants get [_2], [_3], …
    suffixes, and a name keeps its identifier on every later call.
    Emitters scope each namespace of their output (actors, threads,
    FSM states, guard callbacks, …) with one namer, so names that
    spell alike still yield distinct identifiers. *)
