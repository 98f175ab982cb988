(** Named-model registry and the TRAIN / PREDICT engine (protocol v6).

    Vertex-mode recipes fit a binary classifier over the vertices of one
    graph ({!Glql_learning.Erm.train_feature_classifier}); graph-mode
    recipes fit a scalar regressor over a corpus of graphs, one feature
    row each ({!Glql_learning.Erm.train_feature_regressor}). Models are
    plain data (recipe, target, schema, source generations, seed and
    trained weight matrices), so they snapshot byte-exactly and a warm
    restart answers PREDICT with byte-identical replies.

    A model remembers the registry generation of each source graph at
    fit time; a PREDICT against a source graph whose generation has
    moved on (MUTATE / re-LOAD) answers with [stale = true] rather than
    silently serving a prediction the training set no longer matches. *)

module P = Protocol

type task = Classify | Regress

val task_name : task -> string

type stored = {
  sm_name : string;
  sm_task : task;
  sm_mode : P.feat_mode;
  sm_recipe : string;
  sm_target : string;
  sm_schema : string;
  sm_sources : (string * int) list;  (** graph name, generation at fit time *)
  sm_sizes : int list;
  sm_seed : int;
  sm_params : (int * int * float array) list;  (** rows, cols, row-major data *)
  sm_rows : int;
  sm_epochs : int;
  sm_lr : float;
  sm_split : float;
  sm_losses : float array;
  sm_train_metric : float;
  sm_test_metric : float;
}

type t

val create : unit -> t
val count : t -> int

(** Sorted by name; also the snapshot export (see {!Persist}). *)
val list : t -> stored list

(** Snapshot seeding (see {!Persist}). *)
val import : t -> stored list -> unit

(** The exact TRAIN spec a stored model was fit from. Every fit
    hyperparameter is persisted, so refitting through {!train} (the
    RETRAIN-on-stale policy) is deterministic: same seed, split, epochs
    and learning rate yield the same head on unchanged sources. *)
val spec_of_stored : stored -> P.train_spec

type trained = { tr_stored : stored; tr_hits : int; tr_misses : int }

(** Featurize the source graphs, fit a head, and register the model
    under its name (replacing any previous model). Errors are
    [(ERR_* code, message)]; a passed deadline raises
    {!Glql_util.Clock.Deadline_exceeded}. *)
val train :
  registry:Registry.t ->
  cache:Cache.t ->
  models:t ->
  ?deadline:int64 option ->
  ?max_cells:int ->
  P.train_spec ->
  (trained, string * string) result

type prediction = {
  pr_model : stored;
  pr_stale : bool;  (** a training source whose generation moved on *)
  pr_unseen : bool;  (** the graph was never a training source of the model *)
  pr_rows : (int * float) array;  (** row index (vertex, or 0 for graph mode), score *)
  pr_hits : int;
  pr_misses : int;
}

val predict :
  registry:Registry.t ->
  cache:Cache.t ->
  models:t ->
  ?deadline:int64 option ->
  ?max_cells:int ->
  model:string ->
  graph:string ->
  vertices:int list ->
  unit ->
  (prediction, string * string) result
