(** Empirical risk minimisation (slides 19-20) over GNN hypothesis
    classes: full-batch Adam on cross-entropy / MSE losses, one trainer
    per embedding kind. *)

module Mat = Glql_tensor.Mat
module Model = Glql_gnn.Model
module Mlp = Glql_nn.Mlp

type history = { losses : float list; train_metric : float; test_metric : float }

(** Graph classification: metric is accuracy. The model must have a
    readout and a logits head. *)
val train_graph_classifier :
  ?epochs:int ->
  ?lr:float ->
  Model.t ->
  Dataset.graph_classification ->
  train_indices:int list ->
  test_indices:int list ->
  history

(** Semi-supervised node classification on the train mask; metric is
    accuracy (train/test = mask true/false). *)
val train_node_classifier :
  ?epochs:int -> ?lr:float -> Model.t -> Dataset.node_classification -> history

(** Binary classifier on fixed feature vectors (the "view embedding"
    pattern of slide 72: complex fixed embedding + simple learnable head);
    metric is accuracy at threshold 0. [deadline] is checked once per
    epoch and raises {!Glql_util.Clock.Deadline_exceeded} — the server's
    per-request timeout cancels a long fit cooperatively. *)
val train_feature_classifier :
  ?epochs:int ->
  ?lr:float ->
  ?deadline:int64 option ->
  Mlp.t ->
  features:Glql_tensor.Vec.t array ->
  targets:float array ->
  mask:bool array ->
  history

(** Scalar regressor on fixed feature vectors — the regression twin of
    {!train_feature_classifier} (same per-epoch [deadline] check);
    metric is MSE. *)
val train_feature_regressor :
  ?epochs:int ->
  ?lr:float ->
  ?deadline:int64 option ->
  Mlp.t ->
  features:Glql_tensor.Vec.t array ->
  targets:float array ->
  mask:bool array ->
  history

(** Scalar graph regression; metric is MSE. *)
val train_graph_regressor :
  ?epochs:int ->
  ?lr:float ->
  Model.t ->
  Dataset.regression ->
  train_indices:int list ->
  test_indices:int list ->
  history

(** Deterministic train/test index split. *)
val split : Glql_util.Rng.t -> n:int -> train_fraction:float -> int list * int list
