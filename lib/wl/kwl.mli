(** k-dimensional Weisfeiler-Leman (slide 65), oblivious and folklore
    flavours, over k-tuples of vertices indexed row-major. Joint runs make
    colours comparable across graphs. *)

module Graph = Glql_graph.Graph

type variant = Oblivious | Folklore

type result

(** Refine all graphs jointly until the tuple partition stabilises.
    Cost is O(n^k) tuples per graph and O(n^{k+1}) work per round.
    [deadline] ({!Glql_util.Clock} monotonic deadline) is checked once
    per round and, for [k >= 2], every 1,024 tuples inside a round; when
    past, refinement aborts by raising
    [Glql_util.Clock.Deadline_exceeded]. *)
val run_joint :
  ?max_rounds:int -> ?deadline:int64 option -> k:int -> variant:variant -> Graph.t list -> result

(** Stable tuple-colour array per graph (index = row-major tuple index). *)
val stable_colors : result -> int array list

(** Rebuild a result from persisted parts; validates that each colour
    array has [|V|^k] entries and raises [Invalid_argument] on mismatch —
    the snapshot store's decode path. *)
val of_parts :
  k:int -> graphs:Graph.t list -> stable:int array list -> rounds:int -> result

val rounds : result -> int

(** Number of k-tuples over [n] vertices. *)
val tuple_count : int -> int -> int

(** Row-major index of a k-tuple. *)
val encode_tuple : n:int -> int array -> int

(** Inverse of [encode_tuple]. *)
val decode_tuple : n:int -> k:int -> int -> int array

(** Canonical multiset signature of a colour array (the graph's colour). *)
val graph_signature : int array -> string

(** Graph-level k-WL equivalence. *)
val equivalent_graphs : k:int -> variant:variant -> Graph.t -> Graph.t -> bool

(** Stable colour of a p-tuple ([p <= k]) in graph [graph_index] of the
    joint run, padding by repetition of the last entry. *)
val tuple_color : result -> int -> int array -> int

(** Partition of a graph corpus by k-WL graph colour. *)
val graph_partition : k:int -> variant:variant -> Graph.t list -> Partition.t
