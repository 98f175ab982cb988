(** Feature-recipe evaluator (protocol v6).

    A {b recipe} is a ';'-separated list of column specs; each spec
    materializes a block of float columns for every row of the feature
    matrix — one row per vertex ([Fm_vertex]) or a single summary row
    for the whole graph ([Fm_graph]):

    {v
    label        raw label columns (vertex: the label vector;
                 graph: componentwise sum over vertices)
    deg          degree (vertex) / total degree 2|E| (graph)
    wl[@r]       color refinement at round r (default: stable).
                 vertex: one-hot of the vertex's class (width = class
                 count, so the width is graph- and generation-dependent);
                 graph: sorted class-size histogram, zero-padded to a
                 fixed width so schemas agree across a training corpus
    kwl<k>       stable folklore k-WL (k = 2 or 3), graph mode only:
                 sorted tuple-class-size histogram, fixed width
    hom<s>       homomorphism counts of every free tree with <= s
                 vertices (vertex: rooted counts; graph: totals)
    gel:<expr>   GEL query columns (vertex: exactly one free variable;
                 graph: closed expression), compiled via the plan cache
    v}

    Colorings and plans are fetched through the server {!Cache}, so they
    are shared with WL/KWL/QUERY traffic, and a colouring that several
    requests need at once is computed once. *)

module P = Protocol
module Graph = Glql_graph.Graph

type column =
  | Col_label
  | Col_deg
  | Col_wl of int option
  | Col_kwl of int
  | Col_hom of int
  | Col_gel of string

(** Parse a recipe string. [Error] messages are suitable for an
    ERR_BAD_RECIPE reply. *)
val parse_recipe : string -> (column list, string) result

type built = {
  b_mode : P.feat_mode;
  b_cols : (string * int) list;  (** per-column (name, width) *)
  b_width : int;
  b_rows : float array array;
  b_schema : string;
      (** mode plus per-column names and widths — the contract a trained
          model checks at PREDICT time *)
  b_cache_hits : int;
  b_cache_misses : int;
}

val schema_hash : string -> string

(** Stable hex digest of the matrix contents (row-major f64 bits). *)
val row_digest : float array array -> string

(** Materialize the matrix. Errors are [(ERR_* code, message)]; a passed
    deadline raises {!Glql_util.Clock.Deadline_exceeded} like the other
    kernels. [max_cells] (0 = unlimited) bounds rows x width, enforced
    column by column as soon as each column's width is known and before
    its block is allocated — a recipe that would blow the budget (e.g. a
    vertex-mode [wl] one-hot as wide as the class count) is rejected
    without materializing it.

    The finished matrix is cached whole in the server {!Cache} under
    (graph, generation, mode, canonical recipe), through its
    single-flight lookup ({!Cache.features}): concurrent builds of one key
    assemble it once. A warm call (or one that waited for a concurrent
    build) returns it without touching a column and reports one
    feature-level cache hit ([b_cache_hits = 1], [b_cache_misses = 0]).
    The cell budget is re-checked on the warm path. Cached rows are
    shared, never copied — consumers treat them as read-only. *)
val build :
  cache:Cache.t ->
  graph_name:string ->
  gen:int ->
  ?deadline:int64 option ->
  ?max_cells:int ->
  P.feat_mode ->
  Graph.t ->
  column list ->
  (built, string * string) result
