(** The lint driver: runs every rule family, sorts the findings into
    the stable report order and counts per-rule occurrences into the
    {!Umlfront_obs.Metrics} registry ([lint.runs], [lint.diagnostics]
    and one [lint.<code>] counter per firing rule).

    The synthesizer is expected to keep all bundled and randomly
    generated models lint-clean — [test/test_analysis.ml] enforces
    this, and the [lint-examples] CI step enforces it on the bundled
    case studies via [umlfront lint --deny warnings]. *)

val rules : (string * Diagnostic.severity * string) list
(** The rule catalog: (code, severity, one-line title), sorted by
    code.  Documented in [doc/analysis.md]. *)

val check_uml : Umlfront_uml.Model.t -> Diagnostic.t list
(** UML-level rules (UF0xx) only — for models that have not been
    synthesized yet. *)

val check_caam : Umlfront_simulink.Model.t -> Diagnostic.t list
(** CAAM-level rules (UF1xx) plus, when the model flattens, the
    SDF-level rules (UF2xx) on the flattened graph and the per-channel
    capacity check (UF203).  A model that cannot be flattened at all
    yields a single UF190 error instead of the SDF rules. *)

val check : uml:Umlfront_uml.Model.t -> Umlfront_simulink.Model.t -> Diagnostic.t list
(** {!check_uml} plus {!check_caam} — the whole catalog, as run by
    [umlfront lint]. *)

val deny : [ `Errors | `Warnings ] -> Diagnostic.t list -> Diagnostic.t list
(** The findings that fail the run under the given policy: errors
    only, or errors and warnings ([--deny warnings]). *)
