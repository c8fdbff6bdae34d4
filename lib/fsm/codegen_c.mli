(** Switch-based C code generation from a flat FSM (the role BridgePoint
    plays in the paper's control-flow branch). *)

val header : ?inline_guards:bool -> Fsm.t -> string
(** A C header declaring the state/event enums, the step function and
    the action callbacks.  With [inline_guards] (default false), guards
    that parse in the {!Guard_expr} language are compiled to C
    expressions over [extern double] variables (declared here) instead
    of callback functions; unparsable guards keep their callback. *)

val source : ?inline_guards:bool -> Fsm.t -> string
(** The C implementation: a [switch] over states with nested event
    dispatch; guards become calls to [bool <fsm>_guard_<name>(void)]
    (or inline expressions), actions calls to
    [void <fsm>_action_<name>(void)].  States, events, guards and
    actions are four {!Umlfront_transform.M2t.make_namer} namespaces,
    so two names that spell alike once sanitized (and uppercased, for
    the state and event constants) get distinct identifiers: the one
    declared later gets a [_2], [_3], … suffix. *)

val save : ?inline_guards:bool -> Fsm.t -> dir:string -> unit
(** Writes [<name>.h] and [<name>.c] into [dir]. *)
