(** Named-graph registry of the query server, and the generator-name table
    it shares with [bin/gelq].

    A {e graph spec} is a ['+']-separated list of atoms, each atom either a
    fixed generator name ([petersen], [rook], ...) or a sized pattern
    ([cycle<N>], [path<N>], [complete<N>], [star<N>], [grid<R>x<C>],
    [circulant<N>c<S1>c<S2>...]); the graphs of a multi-atom spec are
    combined by disjoint union ([cycle3+cycle3]). *)

module Graph = Glql_graph.Graph

(** Fixed generator names accepted in specs. *)
val generator_names : string list

(** Human-readable sized-pattern forms accepted in specs. *)
val generator_patterns : string list

(** Build the graph a spec describes; [Error] explains what was wrong.
    Never raises. Specs whose predicted size exceeds [max_vertices]
    (default 100k) or [max_edges] (default 4M) are rejected {e before}
    any construction, so an oversized spec costs nothing. The defaults
    are overridable per process via the [GLQL_SPEC_MAX_VERTICES] and
    [GLQL_SPEC_MAX_EDGES] environment variables (read once at startup),
    so bench and stress rigs can serve corpus-scale graphs without a
    rebuild. *)
val graph_of_spec :
  ?max_vertices:int -> ?max_edges:int -> string -> (Graph.t, string) result

(** Whitespace-normalised form of a spec: atoms trimmed, joined with a
    bare ['+'] — so ["sbm10 + path3"] and ["sbm10+path3"] canonicalise
    identically. The spec-fallback path of {!find_binding} caches under
    this form, giving every spelling of a spec one shared entry (and one
    generation). *)
val canonical_spec : string -> string

(** Thread-safe name → graph registry. *)
type t

val create : unit -> t

(** Build [spec] and bind it to [name]. Returns the graph.

    Every name carries its own {e generation}: 0 when the name is first
    bound, one more on each re-binding or applied {!mutate}. Nothing
    unbinds a name, so its generations only grow and none is reused; and
    the number depends on that name's history alone, so every topology
    and every restart from a snapshot report the same one.

    Re-LOADing a bound name still works but is {e deprecated} as an
    update mechanism: it rebuilds from scratch and discards the old
    graph's cached colourings. Use {!mutate} to evolve a bound graph in
    place — it advances the generation and leaves the old colouring
    usable as an incremental seed. *)
val register : t -> name:string -> spec:string -> (Graph.t, string) result

(** Bind an already-constructed graph to [name] (the snapshot-restore
    path, where the graph came off disk rather than from its spec) at
    generation [gen], or at the generation {!register} would give it
    when that is later. Returns the generation bound: [gen] itself in a
    process that has not bound [name] at [gen] or later. *)
val register_prebuilt : t -> name:string -> spec:string -> gen:int -> Graph.t -> int

(** [find t name] is the registered graph, falling back to interpreting
    [name] itself as a spec (and caching the result under it) — so
    clients can say [QUERY petersen ...] without a LOAD. *)
val find : t -> string -> (Graph.t, string) result

(** [find_binding t name] is [Ok (key, graph, generation)]: [find] plus
    the binding the lookup resolved to — its key ([name] itself, or else
    [name]'s {!canonical_spec}) and its generation (see {!register}; a
    spec-fallback binding starts at 0 like any new name). Cache keys and
    model sources derived from a graph name use [key], so every spelling
    of a spec shares one set of entries, and include the generation, so
    a LOAD that replaces the binding can never be answered from entries
    computed on the old graph. *)
val find_binding : t -> string -> (string * Graph.t * int, string) result

(** [find_binding] without the key. *)
val find_entry : t -> string -> (Graph.t * int, string) result

(** One mutation op of a MUTATE batch, in registry terms. *)
type op =
  | Add_edge of int * int
  | Del_edge of int * int
  | Set_label of int * float array

(** An op the batch skipped: its position in the batch, the op kind
    ([ADD_EDGE] / [DEL_EDGE] / [SET_LABEL]), a v4-style error code
    (always [ERR_BAD_ARG] today) and prose. *)
type rejected = { r_index : int; r_op : string; r_code : string; r_message : string }

(** Result of an applied MUTATE batch. [m_gen = m_old_gen] means nothing
    applied (every op rejected) and the binding was left untouched.
    [m_touched_adj] / [m_touched_lab] are the sorted, deduplicated
    vertices whose adjacency row / label actually changed versus the
    pre-batch graph — the incremental-recolouring frontier. *)
type mutation_outcome = {
  m_key : string;  (** the binding [name] resolved to, as in {!find_binding} *)
  m_graph : Graph.t;
  m_old_gen : int;
  m_gen : int;
  m_added : int;
  m_deleted : int;
  m_relabeled : int;
  m_rejected : rejected list;
  m_touched_adj : int list;
  m_touched_lab : int list;
}

(** [mutate t ~name ops] applies one batch atomically under the registry
    lock: ops validate {e sequentially against the evolving state} (an
    edge added earlier in the batch can be deleted later in it), invalid
    ops are skipped and reported, and the binding advances {e in place}
    to the next generation iff at least one op applied. [Error] only when
    [name] is not bound (MUTATE never builds specs). *)
val mutate : t -> name:string -> op list -> (mutation_outcome, string) result

(** Registered names with vertex/edge counts, sorted by name. *)
val list : t -> (string * int * int) list

(** Full bindings — (name, spec, generation, graph) — sorted by name;
    what a snapshot save exports. *)
val entries : t -> (string * string * int * Graph.t) list

val n_graphs : t -> int
