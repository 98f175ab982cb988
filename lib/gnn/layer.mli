(** GNN layers over vertex-feature matrices (one row per vertex).
    [Gnn101] is the architecture of slide 13; [Gcn], [Gin], [Sage], [Gat]
    are the classical architectures named on slides 34/48. [Gat] is
    forward-only. *)

module Mat = Glql_tensor.Mat
module Graph = Glql_graph.Graph
module Param = Glql_nn.Param
module Activation = Glql_nn.Activation

type agg = Sum | Mean | Max

type t

type cache

(** F(t) = sigma(F(t-1) W1 + A F(t-1) W2 + 1 b^T). *)
val gnn101 : Glql_util.Rng.t -> din:int -> dout:int -> act:Activation.t -> t

(** Kipf-Welling graph convolution with symmetric normalisation. *)
val gcn : Glql_util.Rng.t -> din:int -> dout:int -> act:Activation.t -> t

(** Graph isomorphism network: MLP((1 + eps) h + sum of neighbours). *)
val gin : Glql_util.Rng.t -> din:int -> dout:int -> hidden:int -> eps:float -> t

(** GraphSAGE with a choice of aggregation. *)
val sage : Glql_util.Rng.t -> din:int -> dout:int -> agg:agg -> act:Activation.t -> t

(** Single-head graph attention layer (forward-only). *)
val gat : Glql_util.Rng.t -> din:int -> dout:int -> act:Activation.t -> t

val params : t -> Param.t list

val forward_cached : Graph.t -> t -> Mat.t -> Mat.t * cache

(** Accumulate parameter gradients; returns dL/d(input features). *)
val backward : Graph.t -> t -> cache -> dout:Mat.t -> Mat.t

(** Shadow layer sharing weights but owning private gradient buffers, for
    race-free parallel backward passes (see {!Glql_nn.Param.shadow}). *)
val shadow : t -> t
