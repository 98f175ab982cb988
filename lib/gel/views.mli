(** Embedding methods as views (slide 72): augment vertex labels with
    rooted homomorphism counts of fixed patterns, then run ordinary MPNNs
    on the materialised view (F-MPNNs). *)

module Graph = Glql_graph.Graph

type pattern = { pname : string; pgraph : Graph.t; proot : int }

val triangle_pattern : unit -> pattern
val cycle_pattern : int -> pattern
val clique_pattern : int -> pattern

(** Append per-vertex rooted hom counts of each pattern to the labels. *)
val augment : pattern list -> Graph.t -> Graph.t

(** Colour-refinement equivalence after the view — the separation power
    ceiling of F-MPNNs over these patterns. *)
val cr_equivalent_with_view : pattern list -> Graph.t -> Graph.t -> bool
