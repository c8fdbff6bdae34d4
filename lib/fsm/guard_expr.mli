(** A small expression language for transition guards, so guards are
    executable rather than opaque labels: the simulator can evaluate
    them against a variable environment and the C generator can inline
    them.

    Grammar (C-like precedence):
    {v
      expr  := or
      or    := and ('||' and)*
      and   := not ('&&' not)*
      not   := '!' not | cmp
      cmp   := arith (('=='|'!='|'<'|'<='|'>'|'>=') arith)?
      arith := term (('+'|'-') term)*
      term  := factor (('*'|'/') factor)*
      factor := number | identifier | '(' expr ')'
      number := [0-9.]+ ([eE] [+-]? [0-9]+)?
    v}

    A bare arithmetic expression is truthy when non-zero. *)

type t =
  | Num of float
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Arith of arith * t * t

and cmp = Eq | Ne | Lt | Le | Gt | Ge
and arith = Add | Sub | Mul | Div

val parse : string -> (t, string) result
val parse_exn : string -> t

val eval : env:(string -> float) -> t -> bool
(** Unknown variables should be handled by [env] (e.g. default 0). *)

val eval_float : env:(string -> float) -> t -> float

val variables : t -> string list
(** Distinct variables, sorted. *)

val to_c : t -> string
(** A parenthesized C expression over [double] variables. *)

val to_string : t -> string
(** Re-printable form; [parse (to_string e)] yields an equivalent
    expression (property-tested).  A constant prints with the fewest of
    15, 16 or 17 significant digits that read back to the same float. *)

val evaluator : (string * float) list -> string -> bool
(** [evaluator bindings] is a [guard_eval] function for {!Fsm.step}:
    parses each guard text (unparsable guards are conservatively true,
    like the default) and evaluates it; unbound variables read 0. *)
