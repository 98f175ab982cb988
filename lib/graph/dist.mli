(** Breadth-first distances and ego networks (the substrate of nested /
    subgraph GNNs, slide 71). *)

(** BFS distances from a source; unreachable vertices get [-1]. *)
val bfs : Graph.t -> int -> int array

(** Sorted vertices within the given distance of the centre. *)
val ball : Graph.t -> center:int -> radius:int -> int array

(** Induced radius-[radius] ego network and the centre's index in it. *)
val ego_net : Graph.t -> center:int -> radius:int -> Graph.t * int
