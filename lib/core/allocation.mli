(** Automatic thread allocation (paper §4.2.3).

    The data dependencies between threads are captured from the
    sequence diagrams and turned into a task graph: nodes are threads
    (weight: number of functional calls the thread performs), edges
    carry the amount of transferred data in bytes.  Linear clustering
    (Gerasoulis & Yang) groups heavily-communicating threads; each
    cluster becomes a CPU, making the deployment diagram unnecessary. *)

val task_graph : Umlfront_uml.Model.t -> Umlfront_taskgraph.Graph.t
(** [Set] messages add an edge caller → callee, [Get] messages callee →
    caller, weighted by {!Umlfront_uml.Sequence.transferred_bytes};
    repeated communication accumulates. *)

val acyclic_view : Umlfront_taskgraph.Graph.t -> Umlfront_taskgraph.Graph.t
(** The graph without its {!Umlfront_taskgraph.Algo.all_back_edges}:
    every node with its weight, every other edge.  An acyclic graph
    comes back as is.  Linear clustering needs a DAG; the dropped
    feedback edges still carry data, the heuristic just ignores them. *)

type strategy =
  | Linear  (** one CPU per linear cluster *)
  | Bounded of int  (** linear clustering folded to at most N CPUs *)

val infer :
  ?strategy:strategy ->
  ?cpu_prefix:string ->
  Umlfront_uml.Model.t ->
  (string * string) list
(** Thread → CPU name ([CPU0], [CPU1], ... in cluster-discovery order:
    the graph's critical path lands on [CPU0]).  Mutually-communicating
    threads make the task graph cyclic; back edges are dropped before
    clustering (the data still flows — only the allocation heuristic
    ignores the feedback direction). *)

val from_deployment : Umlfront_uml.Model.t -> (string * string) list option
(** The manual allocation, when the model carries a deployment
    diagram. *)
