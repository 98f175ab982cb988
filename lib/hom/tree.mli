(** Tree enumeration for the homomorphism-count characterisation of colour
    refinement (slide 27). *)

module Graph = Glql_graph.Graph

(** Abstract rooted tree. *)
type rooted = Node of rooted list

(** All rooted trees with exactly [n] vertices, each exactly once.
    Counts: 1, 1, 2, 4, 9, 20, 48, 115, 286 for n = 1..9. *)
val rooted_trees : int -> rooted list

(** The one or two centroids of a tree graph. *)
val centroids : Graph.t -> int list

(** Canonical form of a free tree (minimum over centroid rootings). *)
val canon_free : Graph.t -> string

(** All free (unrooted) trees with exactly [n] vertices, as graphs.
    Counts: 1, 1, 1, 2, 3, 6, 11, 23, 47 for n = 1..9. *)
val free_trees : int -> Graph.t list

(** Free trees of every size from 1 to [n]. *)
val all_free_trees_up_to : int -> Graph.t list

(** Is the graph a (connected) tree? *)
val is_tree : Graph.t -> bool
