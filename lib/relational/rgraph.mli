(** Multi-relational (edge-typed) graphs — the knowledge-graph setting of
    slide 74. Edges are undirected and carry a relation type in
    [0 .. n_relations - 1]. *)

module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph

type t

(** [create ~n ~n_relations ~edges ~labels] with edges given as
    [(relation, u, v)] triples; self-loops dropped, duplicates merged. *)
val create :
  n:int -> n_relations:int -> edges:(int * int * int) list -> labels:Vec.t array -> t

val n_vertices : t -> int
val n_relations : t -> int

(** Sorted neighbours of [v] through [relation]. *)
val neighbors : t -> relation:int -> int -> int array

val label : t -> int -> Vec.t

(** Single-relation view of a plain graph. *)
val of_graph : Graph.t -> t

(** Forget relation types. *)
val union_graph : t -> Graph.t

(** Rename vertices along a permutation. *)
val permute : t -> int array -> t

(** Uniform random typed graph. *)
val random : Glql_util.Rng.t -> n:int -> n_relations:int -> p:float -> t
