(** XML (E-core style) serialization of dynamic models.

    Contained objects are nested inside their container element;
    cross-references are emitted as space-separated idref attributes,
    mirroring how EMF serializes resources. *)

val to_xml : Mmodel.t -> Umlfront_xml.Xml.t
val to_string : Mmodel.t -> string

val of_xml : Meta.t -> Umlfront_xml.Xml.t -> Mmodel.t
(** @raise Invalid_argument when the document does not conform to the
    metamodel. *)

val of_string : Meta.t -> string -> Mmodel.t
