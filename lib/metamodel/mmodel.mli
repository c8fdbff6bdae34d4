(** Dynamic model instances conforming to a {!Meta} metamodel.

    Objects are identified by unique string ids and carry attribute
    slots and reference slots.  The model tracks containment so that
    serialization can nest contained objects. *)

type value = V_string of string | V_int of int | V_float of float | V_bool of bool

type obj
type t

val create : Meta.t -> t
(** Fresh empty model conforming to the given metamodel. *)

val metamodel : t -> Meta.t

(** {1 Objects} *)

val new_object : ?id:string -> t -> string -> obj
(** [new_object m cls] creates an instance of metaclass [cls].  A fresh
    id is generated when [id] is not supplied.
    @raise Invalid_argument for an unknown or abstract class, or a
    duplicate id. *)

val id : obj -> string
val class_of : obj -> string

val find : t -> string -> obj option
val find_exn : t -> string -> obj
val objects : t -> obj list
(** All objects, in creation order. *)

val all_of_class : t -> string -> obj list
(** Instances of the class or any subclass, in creation order. *)

(** {1 Attributes} *)

val set : t -> obj -> string -> value -> unit
(** @raise Invalid_argument for an unknown attribute or type mismatch. *)

val get : obj -> string -> value option
val get_string : obj -> string -> string option
val get_int : obj -> string -> int option
val get_bool : obj -> string -> bool option
val get_float : obj -> string -> float option

val set_string : t -> obj -> string -> string -> unit
val set_int : t -> obj -> string -> int -> unit
val set_bool : t -> obj -> string -> bool -> unit
val set_float : t -> obj -> string -> float -> unit

(** {1 References} *)

val add_ref : t -> src:obj -> string -> dst:obj -> unit
(** Append [dst] to the reference slot.  For single-valued references
    the previous target is replaced.
    @raise Invalid_argument for unknown reference, target class
    mismatch, or a containment violation (object already contained
    elsewhere). *)

val refs : t -> obj -> string -> obj list
val ref1 : t -> obj -> string -> obj option

val container : t -> obj -> obj option
(** The object containing this one, if any. *)

(** {1 Validation} *)

type violation = { object_id : string; complaint : string }

val validate : t -> violation list
(** Checks required attributes present, containment acyclic, and all
    reference targets alive.  Empty list means the model conforms. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Statistics} *)

val size : t -> int
val pp : Format.formatter -> t -> unit
