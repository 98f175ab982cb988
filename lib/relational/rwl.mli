(** Relational colour refinement and R-GCN-style models (slide 74): the
    refinement keeps one neighbour multiset per relation type; the claim
    mirrored from the plain setting is rho(R-GNN) = rho(relational 1-WL). *)

module Vec = Glql_tensor.Vec

(** Joint relational colour refinement; stable colours per graph,
    comparable across the list. All graphs must agree on [n_relations]. *)
val run_joint : Rgraph.t list -> int array list

(** Canonical multiset signature of a colour array. *)
val graph_signature : int array -> string

val equivalent_graphs : Rgraph.t -> Rgraph.t -> bool

type model

(** Random-weight R-GCN-style model: per-relation weight matrices, tanh
    updates, sum readout. *)
val random_model :
  Glql_util.Rng.t ->
  label_dim:int ->
  n_relations:int ->
  width:int ->
  depth:int ->
  out_dim:int ->
  model

val graph_embedding : model -> Rgraph.t -> Vec.t
