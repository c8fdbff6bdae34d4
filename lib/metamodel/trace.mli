(** Traceability links between source and target model elements,
    recorded by transformations so that later passes (and users) can
    resolve "what did this element become?". *)

type link = { rule : string; sources : string list; targets : string list }
type t

val create : unit -> t
val record : t -> rule:string -> sources:string list -> targets:string list -> unit
val links : t -> link list

val targets_of : ?rule:string -> t -> string -> string list
(** Targets produced from the given source id (optionally restricted to
    one rule), in recording order. *)

val rules : t -> string list
val size : t -> int
val pp : Format.formatter -> t -> unit
