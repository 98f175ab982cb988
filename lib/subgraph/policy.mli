(** Subgraph-selection policies (slide 71): per-vertex graph transforms
    shared by ID-aware, reconstruction and nested GNNs. *)

module Graph = Glql_graph.Graph

type t =
  | Mark        (** ID-aware GNNs: mark the chosen vertex with an extra label column. *)
  | Delete      (** Reconstruction GNNs: delete the chosen vertex. *)
  | Ego of int  (** Nested GNNs: radius-r ego net with marked centre. *)

(** Transform for the choice of vertex [v]. *)
val apply : t -> Graph.t -> int -> Graph.t

(** One transform per vertex, in vertex order. *)
val transforms : t -> Graph.t -> Graph.t list
