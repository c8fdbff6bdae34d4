(** Hierarchical Simulink systems: blocks wired by lines, subsystems
    containing nested systems.

    Values are immutable; construction functions return updated
    systems.  Port numbering is 1-based, as in Simulink.  A subsystem's
    boundary ports are defined by its [Inport]/[Outport] child blocks
    (their [Port] parameter gives the index). *)

type port_ref = { block : string; port : int }
type line = { src : port_ref; dst : port_ref }

type block = {
  blk_name : string;
  blk_type : Block.t;
  blk_params : (string * Block.param) list;
  blk_system : t option;  (** [Some _] iff the block is a [Subsystem] *)
}

and t = { sys_name : string; sys_blocks : block list; sys_lines : line list }

val empty : string -> t

val add_block :
  ?params:(string * Block.param) list -> ?system:t -> t -> Block.t -> string -> t
(** @raise Invalid_argument on duplicate names, or a [system] supplied
    for a non-subsystem. *)

val add_line : t -> src:port_ref -> dst:port_ref -> t
(** @raise Invalid_argument when an endpoint block does not exist in
    this system or the destination port is already driven. *)

val make : string -> block list -> line list -> t
(** [make name blocks lines] is the system named [name] that adding
    [blocks] with {!add_block}, then [lines] with {!add_line}, in order,
    would build, in one pass: a [Subsystem] block without a system gets
    an empty one named after it.

    @raise Invalid_argument with the first error, and the message, that
    sequence would raise. *)

val remove_line : t -> src:port_ref -> dst:port_ref -> t
val replace_block : t -> block -> t
val rename_system : t -> string -> t

val find_block : t -> string -> block option
val find_block_exn : t -> string -> block
val blocks : t -> block list
val lines : t -> line list
val blocks_of_type : t -> Block.t -> block list

val param : block -> string -> Block.param option
val param_string : block -> string -> string option
val param_int : block -> string -> int option
val set_param : t -> string -> string -> Block.param -> t
(** [set_param sys block_name key value]. *)

val port_counts : block -> int * int
(** (inputs, outputs) of the block: subsystem ports are counted from
    its [Inport]/[Outport] children; [Inputs]/[Outputs] integer
    parameters override the type default. *)

val inport_index : block -> int
(** The [Port] parameter of an [Inport]/[Outport] block (default 1). *)

val drivers : t -> string -> (int * port_ref) list
(** For each driven input port of the block: (port index, source). *)

val consumers : t -> string -> int -> port_ref list
(** Destinations fed by the given output port. *)

val total_blocks : t -> int
(** Blocks in this system and, recursively, all subsystems. *)

val total_lines : t -> int

val iter_systems : (string list -> t -> unit) -> t -> unit
(** Apply to this system and every nested one; the first argument is
    the path of subsystem block names from the root (empty for the
    root). *)

val map_systems : (string list -> t -> t) -> t -> t
(** Rebuild bottom-up: children are transformed before their parent
    sees them. *)

type complaint = { path : string; gripe : string }

val validate : t -> complaint list
(** Unique block names, line endpoints exist, port indices in range,
    single driver per input port, contiguous [Port] numbering of
    boundary ports — recursively. *)

val pp : Format.formatter -> t -> unit
