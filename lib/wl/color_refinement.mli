(** Colour refinement — 1-dimensional Weisfeiler-Leman (slide 50).

    All runs are "joint": the given graphs are refined in lockstep against
    a shared signature interner, making colours comparable across graphs.
    Restricting a joint run to one graph coincides with a solo run, so
    stable joint colourings decide CR-equivalence. *)

module Graph = Glql_graph.Graph

type result

(** Refine the given graphs together until the joint vertex partition is
    stable (or [max_rounds] is hit; default: total vertex count).
    [deadline] is a monotonic-clock deadline in the sense of
    {!Glql_util.Clock}: it is checked once per round and refinement is
    aborted by raising [Glql_util.Clock.Deadline_exceeded] when past. *)
val run_joint : ?max_rounds:int -> ?deadline:int64 option -> Graph.t list -> result

(** Solo run. *)
val run : ?max_rounds:int -> ?deadline:int64 option -> Graph.t -> result

(** [run_incremental ~base ~touched_adj ~touched_lab g] recolours the
    mutated graph [g] starting from [base], a cached solo result for the
    pre-mutation graph (same vertex count): per round only the dirty
    frontier — vertices with changed adjacency ([touched_adj]), changed
    labels ([touched_lab]), vertices whose colour class failed to match
    the old partition, and their neighbours — has its signature key
    rebuilt; every other vertex's colour is transported from [base].
    The returned result is bit-identical to [run g] (same colour ids,
    history, and round count), and the boolean is [true] when the
    incremental path was taken. Falls back to a full run (returning
    [false]) when [base] is not a well-formed solo result for an
    [n]-vertex graph, when [n < 64], or when the frontier exceeds
    [frontier_limit] (default 0.25) of the vertices in some round. *)
val run_incremental :
  ?max_rounds:int ->
  ?deadline:int64 option ->
  ?frontier_limit:float ->
  base:result ->
  touched_adj:int list ->
  touched_lab:int list ->
  Graph.t ->
  result * bool

(** Stable colour array per graph, in input order. *)
val stable_colors : result -> int array list

(** Colourings per round (round 0 = initial labels), each a per-graph list. *)
val history : result -> int array list list

(** Number of refinement rounds executed until stability. *)
val rounds : result -> int

(** Canonical multiset signature of a colour array (the graph's colour). *)
val graph_signature : int array -> string

(** Graph-level CR-equivalence: same stable colour multiset. *)
val equivalent_graphs : Graph.t -> Graph.t -> bool

(** Partition of a graph corpus by CR graph colour. *)
val graph_partition : Graph.t list -> Partition.t

(** Partition of all (graph, vertex) items, graph-major order. *)
val vertex_partition : Graph.t list -> Partition.t

(** Rebuild a result from persisted parts: the graphs of the joint run
    and the full per-round history (round 0 first; the last round is the
    stable colouring). Validates shapes and raises [Invalid_argument] on
    mismatch — the snapshot store's decode path. *)
val of_parts : graphs:Graph.t list -> history:int array list list -> result

(** Number of colour classes in the stable joint partition. *)
val n_classes : result -> int

(** Joint colouring after the given number of rounds, clamped to
    [\[0, rounds\]] — so one cached stable run answers every
    smaller-round request (the query server's colouring cache relies on
    this). *)
val colors_at_round : result -> int -> int array list
