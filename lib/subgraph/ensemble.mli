(** Subgraph-ensemble embeddings (slide 71): the multiset over vertex
    choices of a base embedding of the transformed graph. With a colour
    refinement base the separation power is computed exactly. *)

module Graph = Glql_graph.Graph

(** Does the CR-based ensemble consider the two graphs equivalent? *)
val equivalent : Policy.t -> Graph.t -> Graph.t -> bool

(** Tensor-level ensemble with a random-weight GNN 101 base (sum over
    choices of the base graph embedding). *)
val gnn_embedding : Glql_gel.Compile_gnn.gnn101 -> Policy.t -> Graph.t -> Glql_tensor.Vec.t

(** Label dimension the base model must accept under the policy. *)
val base_in_dim : Policy.t -> Graph.t -> int
