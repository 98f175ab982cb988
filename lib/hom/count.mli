(** Homomorphism and subgraph counting (slide 27: hom(T, G) for trees
    characterises colour refinement; slide 72: hom counts as views).

    Counts are returned as floats: they grow fast, and downstream code
    (embedding features, table cells) consumes floats anyway. *)

module Graph = Glql_graph.Graph

(** DP table for a tree pattern rooted at [root]: entry [v] counts the
    homomorphisms of the whole tree that send the root to [v]. *)
val hom_tree_rooted :
  ?compatible:(int -> int -> bool) -> Graph.t -> int -> Graph.t -> float array

(** hom(T, G) for a tree pattern, by the rooted DP. *)
val hom_tree : ?compatible:(int -> int -> bool) -> Graph.t -> Graph.t -> float

(** Backtracking count for arbitrary patterns; [injective] counts injective
    homomorphisms instead. *)
val hom_bruteforce :
  ?compatible:(int -> int -> bool) -> ?injective:bool -> Graph.t -> Graph.t -> float

(** hom(P, G), using the tree DP when [P] is a tree. *)
val hom : ?compatible:(int -> int -> bool) -> Graph.t -> Graph.t -> float

(** |Aut(P)| (as a float). *)
val automorphism_count : Graph.t -> float

(** Number of subgraphs of [g] isomorphic to [pattern]. *)
val subgraph_count : Graph.t -> Graph.t -> float

(** Number of triangles in [g]. *)
val triangles : Graph.t -> float

(** Rooted hom-count vector for arbitrary patterns (tree DP when possible,
    pinned backtracking otherwise). *)
val rooted_hom_vector_any : Graph.t -> root:int -> Graph.t -> float array

(** Hom-count profile of [g] over a pattern list. [deadline]
    ({!Glql_util.Clock} monotonic deadline) is checked before each
    pattern's count; when past, the profile aborts by raising
    [Glql_util.Clock.Deadline_exceeded]. *)
val profile : ?deadline:int64 option -> Graph.t list -> Graph.t -> float array

(** Equal hom profiles on all given patterns? *)
val equal_profiles : Graph.t list -> Graph.t -> Graph.t -> bool
