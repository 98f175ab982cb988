(** Fork-join domain pool used by the hot kernels (WL refinement, hom-count
    profiles, GNN training, matrix products).

    The process-wide pool is created lazily on first use.  Its size is
    [GLQL_DOMAINS] when that environment variable holds a positive integer,
    and [Domain.recommended_domain_count ()] otherwise.  Size 1 is a
    guaranteed sequential fallback: no domain is ever spawned and every
    entry point runs the plain loop.

    Determinism contract: items of one parallel region must be independent
    and write only to slots keyed by their own index.  Under that contract
    every combinator below produces bit-identical results for every pool
    size, including 1 ([parallel_reduce] combines in index order).

    Entry points must be called from the main domain; parallel regions do
    not nest — a nested call (or any call inside [sequential]) runs
    inline, sequentially. *)

(** Number of domains the pool will use (>= 1). *)
val size : unit -> int

(** [parallel_for ~n f] runs [f 0 .. f (n-1)], splitting indices into
    chunks claimed dynamically by the caller and the resident workers.
    [chunk] overrides the chunk size (default [n / (size * 8)], at least
    1).  The first exception raised by [f] is re-raised in the caller
    after the region completes; once an item has raised, chunks claimed
    afterwards are skipped, so only the chunks already running finish
    their items. *)
val parallel_for : ?chunk:int -> n:int -> (int -> unit) -> unit

(** [parallel_map_array f a] is [Array.map f a] with the applications of
    [f] distributed over the pool. *)
val parallel_map_array : ('a -> 'b) -> 'a array -> 'b array

(** [parallel_reduce ~n ~init ~map ~combine] computes [map i] for each
    index in parallel, then folds [combine] over the results strictly in
    index order — so float reductions match the sequential fold bit for
    bit. *)
val parallel_reduce :
  n:int -> init:'a -> map:(int -> 'b) -> combine:('a -> 'b -> 'a) -> 'a

(** [sequential f] runs [f ()] with every pool entry point forced to the
    sequential fallback — the reference against which parallel runs are
    compared in tests. *)
val sequential : (unit -> 'a) -> 'a
