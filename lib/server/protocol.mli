(** Wire protocol of [glqld]: newline-delimited text requests, one-line
    JSON-tagged replies.

    Request grammar (tokens split on blanks; single or double quotes group
    a token containing blanks, so GEL expressions travel quoted):

    {v
    HELLO
    PING
    VERSION
    LOAD <name> <graph-spec>
    GRAPHS
    GENERATORS
    QUERY <graph> '<gel-expression>'
    EXPLAIN <graph> '<gel-expression>'
    WL <graph> [rounds]
    KWL <graph> <k>
    HOM <graph> <max-tree-size>
    MUTATE <graph> { ADD_EDGES <u> <v> ... | DEL_EDGES <u> <v> ... | SET_LABEL <v> <float> ... } ...
    FEATURIZE <graph> '<recipe>' [VERTEX|GRAPH]
    TRAIN <model> ON <graph>[,<graph>...] WITH '<recipe>' TARGET '<gel>' [MODE VERTEX|GRAPH] [EPOCHS <n>] [LR <f>] [SEED <n>] [SPLIT <f>]
    PREDICT <model> <graph> [vertex ...]
    PREDICT <model> ON <graph>[,<graph>...]
    MODELS
    SAVE [path]
    RESTORE [path]
    STATS
    QUIT
    SHUTDOWN
    v}

    Command words are case-insensitive. Any command may carry a trailing
    bare [TRACE] token, which asks the server to attach the per-request
    span breakdown to the reply. Replies are a single line: either
    [OK <json>] or (since v4) [ERR {"code":"ERR_*","message":"..."}],
    where the code is a stable machine-readable classification of the
    failure (see {!error}). *)

(** Wire-format revision, reported by HELLO/VERSION/STATS. *)
val protocol_version : int

(** Minimal JSON tree, rendered on one line. An alias of
    {!Glql_util.Json.t} so server replies, metrics dumps, bench output and
    trace files share one printer. *)
type json = Glql_util.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list
  | Floats of float array
  | Float_rows of { rows : int; width : int; data : float array }

val json_to_string : json -> string

(** [OK <json>] reply line (no trailing newline). *)
val ok : json -> string

(** A classified failure: [code] is one of the stable [ERR_*] codes
    (ERR_PARSE, ERR_BAD_ARG, ERR_UNKNOWN_GRAPH, ERR_BAD_SPEC, ERR_QUERY,
    ERR_LIMIT_CELLS, ERR_LIMIT_COST, ERR_LIMIT_LINE, ERR_LIMIT_INBUF,
    ERR_LIMIT_CONNS, ERR_DEADLINE, ERR_SNAPSHOT, ERR_SHARD_DOWN,
    ERR_UNKNOWN_MODEL, ERR_BAD_RECIPE, ERR_SCHEMA_MISMATCH,
    ERR_INTERNAL) and [message] is human-readable prose.

    [ERR_SHARD_DOWN] is emitted only by the sharded router front
    ({!Router}): the worker owning the named graph's shard is dead or
    still (re)connecting, while other shards keep serving. The code —
    like the rest of the v4 reply grammar — is unchanged in v5: a
    single-process glqld simply never has a shard to lose.

    v6 adds the model-serving codes: [ERR_UNKNOWN_MODEL] (PREDICT on a
    name the model registry does not hold), [ERR_BAD_RECIPE] (a feature
    recipe that fails to parse or whose columns are illegal for the
    requested mode), and [ERR_SCHEMA_MISMATCH] (a model applied to a
    graph whose featurization no longer produces the schema the model
    was trained on — e.g. a WL one-hot whose class count changed). *)
type error = { code : string; message : string }

val error : code:string -> string -> error

(** [ERR {"code":...,"message":...}] reply line (no trailing newline). *)
val err_line : error -> string

(** Is this reply line an [OK]? *)
val is_ok : string -> bool

(** One mutation op of a v5 MUTATE batch. [M_set_label] carries the full
    replacement label vector of the vertex. *)
type mutation =
  | M_add_edge of int * int
  | M_del_edge of int * int
  | M_set_label of int * float array

(** Featurization scope (v6): one feature row per vertex, or one summary
    row for the whole graph. *)
type feat_mode = Fm_vertex | Fm_graph

val feat_mode_of_token : string -> (feat_mode, string) result
val feat_mode_name : feat_mode -> string

(** A parsed TRAIN command (v6). [t_mode = None] means auto: vertex mode
    when [t_graphs] is a single graph, graph mode otherwise. *)
type train_spec = {
  t_model : string;
  t_graphs : string list;
  t_recipe : string;
  t_target : string;  (** GEL source producing per-row targets *)
  t_mode : feat_mode option;
  t_epochs : int option;
  t_lr : float option;
  t_seed : int option;
  t_split : float option;  (** train fraction of the row split *)
}

type request =
  | Hello
  | Ping
  | Version
  | Load of string * string  (** name, graph spec *)
  | Graphs
  | Generators
  | Query of string * string  (** graph name, GEL source *)
  | Explain of string * string  (** graph name, GEL source *)
  | Wl of string * int option  (** graph name, max rounds *)
  | Kwl of string * int  (** graph name, k *)
  | Hom of string * int  (** graph name, max tree size *)
  | Mutate of string * mutation list  (** graph name, atomic op batch (v5) *)
  | Featurize of string * string * feat_mode  (** graph, recipe, mode (v6) *)
  | Train of train_spec  (** fit a named model server-side (v6) *)
  | Predict of string * string * int list
      (** model, graph, vertex subset (empty = all rows) (v6) *)
  | Predict_batch of string * string list
      (** batched corpus form [PREDICT <model> ON g1,g2,...]: one reply
          whose ["batch"] list holds the per-graph payloads in request
          order. Additive v6 grammar — single-graph replies are
          byte-unchanged. A graph named literally ["ON"] must use the
          batched form to be addressable. *)
  | Models  (** list the model registry (v6) *)
  | Save of string option  (** snapshot path; defaults to [--snapshot] *)
  | Restore of string option  (** snapshot path; defaults to [--snapshot] *)
  | Stats
  | Quit
  | Shutdown

(** A parsed request line: the command plus whether the trailing [TRACE]
    option was present. *)
type parsed = { req : request; traced : bool }

(** Split a raw line into tokens, honouring quotes. [Error] on unbalanced
    quotes. *)
val tokenize : string -> (string list, string) result

(** Parse one request line; never raises. *)
val parse_request : string -> (parsed, string) result

(** {!parse_request} for a line already split by {!tokenize}. *)
val parse_tokens : string list -> (parsed, string) result

(** Parse the op tokens of a MUTATE batch (everything after the graph
    name): keyword-opened sections, repeatable, at least one op overall.
    Shared by the wire grammar and the clients' scriptable [--mutate]
    syntax. *)
val parse_mutations : string list -> (mutation list, string) result

(** Parse the tokens of a TRAIN command after the model name
    (ON/WITH/TARGET plus options, any order). Shared by the wire grammar
    and the clients' scriptable [--train] syntax. *)
val parse_train : string -> string list -> (train_spec, string) result

(** One-line TRAIN grammar, for usage errors. *)
val train_usage : string

(** The command word of a request, for metrics labels. *)
val command_name : request -> string
