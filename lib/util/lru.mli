(** A small bounded LRU map with hit/miss/eviction counters, shared by the
    query server's compiled-plan cache and per-graph colouring cache.

    Not thread-safe: callers that share one cache across domains (the
    server's request handlers) must bring their own lock. Keys are compared
    with structural equality and hashed with [Hashtbl.hash]. *)

type ('k, 'v) t

(** [create ~capacity ()] is an empty cache holding at most [capacity]
    bindings; raises [Invalid_argument] when [capacity < 1].
    [max_bytes] adds a byte budget (default [0] = none): entries inserted
    with [put ~bytes] count towards it and the least-recently-used
    entries are evicted while the total exceeds it. *)
val create : ?max_bytes:int -> capacity:int -> unit -> ('k, 'v) t

val capacity : ('k, 'v) t -> int

(** The byte budget given at [create] ([0] = unbounded). *)
val max_bytes : ('k, 'v) t -> int

(** Number of live bindings. *)
val length : ('k, 'v) t -> int

(** Sum of the [~bytes] estimates of the live bindings. *)
val bytes_used : ('k, 'v) t -> int

(** [get t k] is the value bound to [k], marking it most-recently used and
    counting a hit; [None] counts a miss. *)
val get : ('k, 'v) t -> 'k -> 'v option

(** Membership test that touches neither recency nor the counters. *)
val mem : ('k, 'v) t -> 'k -> bool

(** Lookup that touches neither recency nor the counters. *)
val peek : ('k, 'v) t -> 'k -> 'v option

(** [put t k v] binds [k] to [v] as the most-recently-used entry,
    replacing any previous binding and evicting least-recently-used
    entries while over capacity or over the byte budget. [bytes]
    (default [0]) is the caller's size estimate for this entry. A value
    whose [bytes] alone exceeds the budget is not inserted at all (and
    any stale binding under the key is dropped) — a fitting new entry,
    by contrast, always survives its own insertion. *)
val put : ?bytes:int -> ('k, 'v) t -> 'k -> 'v -> unit

(** [put_cold t k v] is {!put} except the binding lands at the
    least-recently-used end: it counts fully against capacity and the
    byte budget but is the first candidate for eviction (and may be
    evicted by its own insertion when the cache is already full) — for
    second-class entries such as superseded-generation colouring seeds
    that must never displace live entries. *)
val put_cold : ?bytes:int -> ('k, 'v) t -> 'k -> 'v -> unit

(** Remove a binding (no-op when absent) {e without} counting a capacity
    eviction — deliberate retirement, not pressure. *)
val remove : ('k, 'v) t -> 'k -> unit

(** Successful [get]s since creation. *)
val hits : ('k, 'v) t -> int

(** Failed lookups since creation. *)
val misses : ('k, 'v) t -> int

(** Entries dropped by capacity eviction since creation. *)
val evictions : ('k, 'v) t -> int

(** Drop all bindings; counters are kept. *)
val clear : ('k, 'v) t -> unit

(** Keys from most- to least-recently used (for tests and introspection). *)
val keys_mru_first : ('k, 'v) t -> 'k list

(** Bindings from most- to least-recently used, touching neither recency
    nor the counters (the snapshot store exports caches through this). *)
val bindings_mru_first : ('k, 'v) t -> ('k * 'v) list
