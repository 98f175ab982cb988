(** Typed snapshots: what a warm [glqld] knows, as pure data with binary
    codecs over the {!Container} format.

    A snapshot holds the registered graphs (name, spec, generation, and
    the graph itself in CSR form), the stable WL / k-WL colourings of
    the server's cache (referenced by graph name: each is a colouring of
    the graph's saved generation), the {e sources} of cached
    plans keyed by their canonical {!Glql_gel.Normal_form.cache_key}
    (plans are recompiled on restore — deterministic and microseconds —
    so compiled closures never hit the disk), and the cumulative metrics
    counters.

    Encoding/decoding is pure: {!decode} either returns a fully
    validated snapshot or an [Error]; it never returns partial state and
    never raises, so callers can mutate live structures only after a
    decode has succeeded in full. *)

module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl

type coloring_data =
  | Cr_data of Cr.result  (** full history, so smaller-round requests stay answerable *)
  | Kwl_data of int * Kwl.result  (** [k] and the stable folklore run *)

type graph_entry = {
  g_name : string;
  g_spec : string;  (** canonical generator spec, informational *)
  g_gen : int;  (** registry generation at save time; a restore binds the graph at it *)
  g_graph : Graph.t;
}

type coloring_entry = {
  c_name : string;  (** name of the registered graph the colouring belongs to *)
  c_data : coloring_data;
}

type metrics_counters = {
  m_requests : int;
  m_errors : int;
  m_bytes_in : int;
  m_bytes_out : int;
  m_by_command : (string * int) list;
}

(** A trained model of the v6 serving layer, as pure data: the head is
    fully determined by [m_sizes], [m_seed] and the weight matrices, so
    the store does not depend on the nn layer. Written to a dedicated
    MOD2 section — emitted only when models exist, ignored by pre-v6
    readers, defaulted to [[]] when absent — so snapshot compatibility
    is two-way. The legacy MODL section (which predates [m_lr] /
    [m_split]) is still read, defaulting those fields to the TRAIN
    defaults in force when it was current (lr 0.05, split 0.8). *)
type model_entry = {
  m_name : string;
  m_task : int;  (** 0 = classifier, 1 = regressor *)
  m_mode : int;  (** 0 = vertex rows, 1 = graph rows *)
  m_recipe : string;
  m_target : string;
  m_schema : string;
  m_sources : (string * int) list;  (** graph name, generation at fit time *)
  m_sizes : int list;
  m_seed : int;
  m_params : (int * int * float array) list;  (** rows, cols, row-major f64 data *)
  m_rows : int;
  m_epochs : int;
  m_lr : float;  (** fit learning rate, kept for RETRAIN-on-stale refits *)
  m_split : float;  (** fit train fraction, ditto *)
  m_losses : float array;
  m_train_metric : float;
  m_test_metric : float;
}

type t = {
  producer : string;  (** e.g. ["glqld 0.4"] *)
  saved_at : float;  (** Unix time of the save *)
  graphs : graph_entry list;
  colorings : coloring_entry list;
  plans : (string * string) list;  (** (canonical cache key, GEL source) *)
  models : model_entry list;  (** v6 model registry *)
  metrics : metrics_counters option;
}

val encode : t -> string

(** Besides the codecs' own checks, rejects a colouring naming a graph
    the file does not hold. A model source may name one: older files
    recorded a source under the client's spelling of a spec (see
    [Glql_server.Persist.restore]). *)
val decode : string -> (t, string) result

(** Atomic write; returns the byte size of the snapshot file. *)
val write_file : string -> t -> (int, string) result

val read_file : string -> (t, string) result
