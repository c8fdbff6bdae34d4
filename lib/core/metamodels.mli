(** The Simulink (CAAM) metamodel and its dynamic-model bridge.

    The paper's mapping flow (Fig. 2) writes the transformation's
    result as an XML document conforming to the {e Simulink (CAAM)
    meta-model}: the E-core artifact between steps 2 and 4.  Here the
    typed {!Mapping} plays the smartQVT/ATL role and records the trace
    links; this module declares the target metamodel as a
    {!Umlfront_metamodel.Meta} value and converts a CAAM to and from a
    dynamic {!Umlfront_metamodel.Mmodel} instance, so that
    {!Flow.ecore_xml} can print the artifact and a reader can load it
    back. *)

module Meta = Umlfront_metamodel.Meta
module Mm = Umlfront_metamodel.Mmodel

val simulink_mm : Meta.t
(** Target metamodel of the dataflow branch: Model / System / Block /
    Param / Line, with CAAM annotations carried as block params. *)

val simulink_to_mmodel : Umlfront_simulink.Model.t -> Mm.t

val mmodel_to_simulink : Mm.t -> Umlfront_simulink.Model.t
(** Inverse of {!simulink_to_mmodel}.
    @raise Invalid_argument on a non-conforming model. *)
