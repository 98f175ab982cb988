(** The server's two operator caches.

    {b Compiled-plan cache}: LRU from {!Glql_gel.Normal_form.cache_key}
    of the parsed query — so alpha-equivalent / reordered sources share
    one entry — to a compiled plan (optimised expression plus, for
    single-variable MPNN-sum queries, the layered normal form used by the
    fast evaluator).

    {b Colouring cache}: LRU from (graph name, registry generation,
    kernel) to stable colour-refinement / k-WL results and hom profiles,
    reused across requests and across round counts (a stable run answers
    every smaller-round request from its history). Keying by generation
    means a LOAD that replaces a name never has its colourings answered
    from the old graph's entries; since a name's generations never repeat
    (see {!Registry.register}), the pair names one graph.

    All entry points are thread-safe. Plans compile under the cache lock.
    Every other miss is {e single-flight}: the asker marks the key in
    flight and runs the kernel with the lock released, so a slow
    refinement never holds up other lookups. A concurrent asker of the
    same key waits for that value and reports [`Hit] (the second request
    is an observable hit); the lookups that waited are counted under
    [batch_coalesced] in {!stats}. A kernel that raises (a deadline
    included) caches nothing, and a waiter then computes the value
    itself. *)

module Expr = Glql_gel.Expr
module Normal_form = Glql_gel.Normal_form
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl

type plan = {
  key : string;  (** canonical cache key of the source expression *)
  src : string;  (** the GEL source the plan was first compiled from *)
  expr : Expr.t;  (** optimised expression (constant-folded, shared) *)
  layered : Normal_form.t option;
      (** layered fast path when the query is single-variable MPNN-sum *)
}

(** The plan's values on [g], one row per assignment of its free
    variables (row-major in sorted variable order, so one row per vertex
    for a single free variable), [Expr.dim] columns: the layered kernel
    when the plan has one, else the join. The two agree bit for bit.
    [deadline] reaches inside either evaluator. A [lab] beyond the
    graph's label dimension is an [Error] carrying the same type-error
    message from either plan. *)
val eval_plan : ?deadline:int64 option -> plan -> Graph.t -> (Glql_tensor.Mat.t, string) result

(** An assembled feature matrix, cached whole so a warm PREDICT (or a
    repeated FEATURIZE / TRAIN on an unchanged graph) skips column
    materialisation entirely. Mirrors what {!Featurize.build} assembles
    (the type lives here because Cache compiles before Featurize).
    Feature matrices are never snapshotted — they are derived state. *)
type fm = {
  fm_cols : (string * int) list;  (** (column name, width) in recipe order *)
  fm_width : int;  (** total row width *)
  fm_rows : float array array;  (** one row per vertex (or one summary row) *)
  fm_schema : string;  (** canonical schema string of the matrix *)
}

type t

(** [plan_bytes] / [coloring_bytes] / [feature_bytes] add byte budgets on
    top of the entry capacities ([0] = none): entries carry coarse
    heap-size estimates and the LRU evicts by memory once a budget is
    exceeded. *)
val create :
  ?plan_bytes:int ->
  ?coloring_bytes:int ->
  ?feature_bytes:int ->
  plan_capacity:int ->
  coloring_capacity:int ->
  unit ->
  t

(** Parse, key, and compile (or fetch) the plan for a GEL source string.
    [`Hit] means the plan cache already held the canonical key. *)
val plan : t -> string -> (plan * [ `Hit | `Miss ], string) result

(** Stable colour refinement of the named graph, cached per
    (binding key, registry generation) — see {!Registry.find_binding}.
    [deadline] is threaded into the kernel on a miss; a cancelled
    compute raises [Glql_util.Clock.Deadline_exceeded] out of the
    lookup with nothing cached.

    A miss first looks for an incremental seed left by {!note_mutation}
    for this generation: if one is present the colouring is rebuilt by
    frontier recolouring from the superseded result
    ({!Cr.run_incremental}) instead of cold refinement, the seed is
    consumed once the colouring is stored (a cancelled compute leaves
    it), and the lookup still reports [`Miss] (reply bytes are
    independent of how the colouring was computed). *)
val cr :
  t -> graph_name:string -> gen:int -> ?deadline:int64 option -> Graph.t ->
  Cr.result * [ `Hit | `Miss ]

(** What a WL or KWL reply reports of one colouring: its number of
    classes and the hex MD5 of its multiset signature. *)
type summary = { classes : int; signature : string }

(** {!cr}, then the colouring after [round] refinement rounds (clamped to
    [0 .. Cr.rounds]; [None] is the stable colouring) and its summary.
    The summary is computed once per stored colouring and round and kept
    in the entry beside it; its bytes are counted there from the start.
    Entries seeded by a snapshot restore compute theirs on first use. *)
val wl :
  t -> graph_name:string -> gen:int -> ?deadline:int64 option -> round:int option -> Graph.t ->
  Cr.result * int array * summary * [ `Hit | `Miss ]

(** Stable [k]-WL (folklore) of the named graph, cached per
    (name, generation, k). Deadline semantics as in {!cr}. *)
val kwl :
  t -> graph_name:string -> gen:int -> k:int -> ?deadline:int64 option -> Graph.t ->
  Kwl.result * [ `Hit | `Miss ]

(** {!kwl} and the summary of the stable tuple colouring, kept in the
    entry as for {!wl}. *)
val kwl_summary :
  t -> graph_name:string -> gen:int -> k:int -> ?deadline:int64 option -> Graph.t ->
  Kwl.result * summary * [ `Hit | `Miss ]

(** The hom profile of the named graph over [patterns], which must be
    [Glql_hom.Tree.all_free_trees_up_to size]. One colouring-cache entry
    per (name, generation) holds the profile at the largest size computed
    so far; a smaller size is served as its prefix. Never snapshotted.
    Deadline semantics as in {!cr}. *)
val hom :
  t -> graph_name:string -> gen:int -> size:int -> ?deadline:int64 option -> Graph.t list ->
  Graph.t -> float array

(** Record a generation turnover after a successful MUTATE: the
    superseded generation's cached colouring (or its not-yet-consumed
    seed — mutations can stack) becomes the incremental-recolouring seed
    for [gen], stored cold so it counts against the colouring byte
    budget but is evicted before any live entry. Every other colouring
    entry of [old_gen] (k-WL and hom profiles included) is removed
    eagerly.
    [touched_adj] / [touched_lab] are the frontier vertices from
    {!Registry.mutation_outcome}. *)
val note_mutation :
  t ->
  graph_name:string ->
  old_gen:int ->
  gen:int ->
  touched_adj:int list ->
  touched_lab:int list ->
  unit

(** {2 Feature-matrix cache}

    Keyed on (graph name, registry generation, mode, canonical recipe).
    {!note_mutation} eagerly removes the superseded generation's
    matrices; a LOAD's generation bump makes old entries unreachable so
    they age out. *)

(** The cached matrix, or the one [build] assembles on a miss — the
    same single-flight lookup as the colourings. [build] runs with the
    lock released and may re-enter this cache for its column colourings
    and plans; its [Error] is returned as is and caches nothing. *)
val features :
  t -> graph_name:string -> gen:int -> mode:string -> recipe:string -> ?deadline:int64 option ->
  (unit -> (fm, 'e) result) -> (fm * [ `Hit | `Miss ], 'e) result

(** {2 Snapshot export / seeding}

    Exports read without touching LRU recency or hit counters; seeds
    insert without counting and never replace an entry the running
    server already holds. Used by {!Persist}. *)

(** Cached plans as (canonical key, source), most-recently used first. *)
val export_plans : t -> (string * string) list

type exported_coloring =
  | E_cr of { graph_name : string; gen : int; result : Cr.result }
  | E_kwl of { graph_name : string; gen : int; k : int; result : Kwl.result }

val export_colorings : t -> exported_coloring list

(** Parse and compile [src], seeding the plan cache under its canonical
    key (kept if already present). Returns the key. *)
val seed_plan : t -> src:string -> (string, string) result

val seed_cr : t -> graph_name:string -> gen:int -> Cr.result -> unit

val seed_kwl : t -> graph_name:string -> gen:int -> k:int -> Kwl.result -> unit

(** Counter snapshot: plan/coloring/feature hits, misses, evictions,
    sizes, byte gauges ([*_bytes] used vs [*_byte_budget]), the live
    incremental seeds ([seed_entries] / [seed_bytes], included in the
    coloring gauges), how mutated graphs were recoloured
    ([incremental_recolors] vs [incremental_fallbacks]), and the lookups
    that waited on an in-flight key ([batch_coalesced]). *)
val stats : t -> (string * int) list

(** Empty both caches (counters survive); used by the cold-cache bench. *)
val clear : t -> unit
