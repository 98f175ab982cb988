(** GNN models: a stack of layers, an optional global readout (slide 14)
    and an optional MLP head; usable both as vertex embeddings
    [G -> (V -> R^d)] and graph embeddings [G -> R^d] (slides 7-8). *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param

type readout = RSum | RMean | RMax

type t

type cache

val create : ?readout:readout -> ?head:Mlp.t -> Layer.t list -> t
val params : t -> Param.t list

(** Shadow model sharing weights but owning private gradient buffers;
    [params] of the shadow aligns index-wise with [params] of the
    original (the contract of the deterministic gradient merge). *)
val shadow : t -> t

(** Vertex embedding of every vertex (one row each). *)
val vertex_embeddings : t -> Graph.t -> Mat.t

(** Graph embedding; raises if the model has no readout. *)
val graph_embedding : t -> Graph.t -> Vec.t

val forward_vertices_cached : t -> Graph.t -> Mat.t * cache
val forward_graph_cached : t -> Graph.t -> Vec.t * cache

(** Accumulate gradients for a vertex-level loss. *)
val backward_vertices : t -> Graph.t -> cache -> dout:Mat.t -> unit

(** Accumulate gradients for a graph-level loss. *)
val backward_graph : t -> Graph.t -> cache -> dout:Vec.t -> unit

(** GIN + sum readout + MLP head graph classifier. *)
val gin_classifier :
  Glql_util.Rng.t -> in_dim:int -> width:int -> depth:int -> n_classes:int -> t

(** GCN node classifier (no readout; per-vertex logits). *)
val gcn_node_classifier :
  Glql_util.Rng.t -> in_dim:int -> width:int -> depth:int -> n_classes:int -> t
