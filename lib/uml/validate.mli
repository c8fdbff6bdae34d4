(** Well-formedness checks a UML model must pass before the mapping
    runs (the constraints §4.1 assumes). *)

type issue = { where : string; what : string }

val check : Model.t -> issue list
(** Empty list means the model is mappable.  Checked:
    - every message endpoint names a declared instance;
    - every called operation exists on the callee class (except calls
      to Platform objects, which fall back to library lookup);
    - thread-to-thread calls use the [Set]/[Get] naming convention;
    - calls to [<<IO>>] objects use the [get]/[set] convention;
    - when a deployment is present, every thread is allocated exactly
      once and every allocation target is a declared node;
    - actual argument lists match formal [In] parameter counts;
    - every consumed data token is produced somewhere in the diagram
      (order-independent: feedback is legal and later broken by the
      temporal-barrier pass);
    - every token a thread consumes is available inside that thread
      (own result binding, Get, IO read, or a Set delivery), since the
      mapping can only wire thread-local ports. *)

val raise_first : issue list -> unit
(** @raise Invalid_argument listing the first issue, if there is one. *)

val pp_issue : Format.formatter -> issue -> unit
