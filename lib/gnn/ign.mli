(** 2-IGNs — order-2 invariant graph networks (slides 34/63): features on
    vertex pairs, layers built from the 15-dimensional basis of
    permutation-equivariant linear maps on R^(n x n), invariant (sum,
    trace) readout. Forward-only; used for separation-power experiments
    with random weights. *)

module Graph = Glql_graph.Graph
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat

(** Apply one basis operation (0-based index) to a channel matrix; sums
    are normalised by n. *)
val basis_op : int -> Mat.t -> Mat.t

type t

(** Random-weight 2-IGN: input channels = adjacency + one diagonal channel
    per label dimension. *)
val random :
  Glql_util.Rng.t -> label_dim:int -> width:int -> depth:int -> out_dim:int -> t

(** Input tensor encoding of a graph (channel array of n x n matrices). *)
val encode : Graph.t -> Mat.t array

(** Invariant graph embedding. *)
val graph_embedding : t -> Graph.t -> Vec.t

(** {1 PPGN} Channel-wise matrix products lift 2-IGN from colour-refinement
    power to folklore 2-WL (Maron et al., NeurIPS 2019). *)

type ppgn

val random_ppgn :
  Glql_util.Rng.t -> label_dim:int -> width:int -> depth:int -> out_dim:int -> ppgn

val ppgn_graph_embedding : ppgn -> Graph.t -> Vec.t
