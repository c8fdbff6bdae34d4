(** Minimal self-contained XML library.

    Supports exactly what the model serialization layers need: elements
    with attributes, text nodes, comments, declarations, escaping, a
    pretty-printer and a parser.  Namespaces are kept as plain prefixed
    names.

    The parser is one loop over one byte offset into the input.  Open
    elements wait on an explicit stack on the heap, so a document nested
    a million levels deep needs no more native stack than a flat one.
    Line and column are counted from the offset only when a parse
    fails. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attributes, children)] *)
  | Text of string
  | Comment of string

exception Parse_error of { line : int; column : int; message : string }

(** {1 Construction} *)

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** {1 Accessors} *)

val tag : t -> string
(** Tag of an element. @raise Invalid_argument on [Text]/[Comment]. *)

val attrs : t -> (string * string) list
val children : t -> t list

val attr : string -> t -> string option
(** [attr name e] is the value of attribute [name] of element [e]. *)

val attr_exn : string -> t -> string
(** @raise Not_found when the attribute is missing. *)

val child : string -> t -> t option
(** First child element with the given tag. *)

val children_named : string -> t -> t list
(** All child elements with the given tag, in document order. *)

val element_children : t -> t list
(** All child elements (text and comments dropped). *)

val text_content : t -> string
(** Concatenation of all text nodes reachable from the node. *)

(** {1 Escaping} *)

val escape_attribute : string -> string
val escape_text : string -> string

(** {1 Printing} *)

val to_string : ?declaration:bool -> ?indent:int -> t -> string
(** Pretty-print a document.  [declaration] (default [true]) prepends the
    [<?xml ...?>] header; [indent] (default [2]) is the indent step. *)

val pp : Format.formatter -> t -> unit

(** {1 Parsing} *)

val parse_string : string -> t
(** Parse a document and return its root element.  A prolog of
    whitespace, [<?…?>], comments and [<!DOCTYPE…>] may precede the
    root; only whitespace may follow it.  Comments are dropped,
    whitespace-only text between tags is dropped, and CDATA sections
    become [Text].  The five predefined entities decode, and so do the
    character references [&#]{i decimal digits}[;] and
    [&#x]{i hex digits}[;] below 128.

    The parser reads the input in one pass with one offset and keeps its
    open elements on the heap, so its native stack use does not grow
    with nesting depth.  A failure's line and column are counted from
    that offset when it is raised.
    @raise Parse_error on malformed input, and on nothing else. *)

val parse_file : string -> t

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality, ignoring comments and whitespace-only text
    nodes, with attributes compared as sets. *)
