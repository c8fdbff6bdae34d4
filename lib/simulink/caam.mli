(** CAAM (Combined Architecture Algorithm Model) structure over a
    Simulink model, as used by the Simulink-based MPSoC design flow the
    paper targets (Huang et al., DAC'07).

    A CAAM is a conventional Simulink model whose subsystem hierarchy
    is annotated with architecture roles:
    - top level: one {e CPU-SS} subsystem per processor, plus the
      inter-CPU {e communication units} (Channel blocks, GFIFO);
    - inside a CPU-SS: one {e Thread-SS} per thread plus intra-CPU
      channels (SWFIFO);
    - inside a Thread-SS: the functional blocks of the thread.

    Roles are carried by the [CAAMRole] block parameter, protocols by
    the channel's [Protocol] parameter. *)

type role = Cpu | Thread | Comm

val role_param : string
val protocol_param : string

val role_to_string : role -> string
(** ["cpu"], ["thread"], ["comm"]: the value of the [CAAMRole]
    parameter. *)

val role_of_block : System.block -> role option
val mark : System.t -> string -> role -> System.t
(** Tag a block of the system with a CAAM role. *)

val cpus : Model.t -> System.block list
(** CPU-SS blocks at top level, in declaration order. *)

val threads_of_cpu : System.block -> System.block list
(** Thread-SS blocks inside a CPU-SS. *)

val channels : Model.t -> (string list * System.block) list
(** All Channel blocks with their subsystem path. *)

val protocol : System.block -> string option

type channel_class = Inter_cpu | Intra_cpu

val classify_channel : path:string list -> channel_class
(** Channels at top level are inter-CPU, channels nested in a CPU-SS
    are intra-CPU. *)

val thread_names : Model.t -> (string * string) list
(** (thread, cpu) pairs, in declaration order. *)

val check : Model.t -> string list
(** CAAM-specific well-formedness on top of {!Model.validate}:
    - every top-level subsystem is a CPU-SS; every CPU-SS child
      subsystem is a Thread-SS;
    - inter-CPU channels carry GFIFO, intra-CPU channels SWFIFO;
    - every channel connects exactly one producer and one consumer. *)
