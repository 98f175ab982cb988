(** The [glqld] request loop: a long-lived daemon serving the
    {!Protocol} commands over a Unix-domain socket (and optionally TCP),
    with an LRU compiled-plan cache, a per-graph colouring cache, and
    request batches dispatched onto the {!Glql_util.Pool} domain pool so
    concurrent clients are served in parallel.

    [handle_line] is the full request pipeline without any socket — the
    unit tests and the bench drive it directly. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp_port : int option;  (** optional TCP listener on localhost *)
  plan_cache_capacity : int;
  coloring_cache_capacity : int;
  plan_cache_bytes : int;  (** plan-cache byte budget; 0 = entries only *)
  coloring_cache_bytes : int;  (** colouring-cache byte budget; 0 = entries only *)
  feature_cache_bytes : int;
      (** feature-matrix cache byte budget; 0 = entries only. Cached
          matrices are keyed by (graph, generation, mode, recipe) and
          make a warm FEATURIZE / TRAIN / PREDICT skip column
          materialisation entirely; they are never snapshotted *)
  retrain_stale_s : float;
      (** RETRAIN-on-stale scan interval in seconds; 0 disables it. When
          set, the serve loop periodically refits (off the request path,
          with the model's persisted spec — deterministic) every model
          whose source generations drifted, so a subsequent PREDICT
          answers [stale:false] again *)
  request_timeout_s : float;
      (** cooperative per-request deadline; 0 = none. Checked between
          pipeline stages and inside the WL / k-WL / hom kernels (per
          round / per 1,024 tuples / per pattern), so overruns abort
          with [ERR_DEADLINE] instead of running to completion *)
  max_table_cells : int;
      (** reject queries materialising more cells; also bounds the k-WL
          tuple count and the HOM profile's DP-cost estimate *)
  max_connections : int;  (** accepts beyond this are refused ([ERR_LIMIT_CONNS]) *)
  max_line_bytes : int;  (** cap on one request line; 0 = unlimited ([ERR_LIMIT_LINE]) *)
  max_inbuf_bytes : int;
      (** cap on bytes a peer may buffer without a newline; 0 = unlimited
          ([ERR_LIMIT_INBUF] — the slow-loris guard) *)
  metrics_file : string option;  (** metrics JSON dumped here on shutdown *)
  snapshot_file : string option;
      (** snapshot restored at boot (if present) and written on shutdown;
          also the default path of the SAVE/RESTORE commands *)
  verbose : bool;
}

val default_config : config

(** Server build version, reported by HELLO/VERSION (and echoed by the
    sharded router so front and workers report one version). *)
val version : string

type t

val create : config -> t

(** Handle one request line (no trailing newline) and return the reply
    line; never raises, always records metrics. *)
val handle_line : t -> string -> string

(** Handle one select-loop batch of request lines: each line is parsed
    once, then the lines fan out on the domain pool. Replies are returned
    in input order and are byte-identical to serving each line alone,
    except for cache-hit tags: requests that need the same colouring at
    once share one computation through the {!Cache}'s single-flight
    lookup, and only the one that computed it reports a miss. *)
val handle_lines : t -> string array -> string array

(** The server's caches (for stats inspection and bench cache-clearing). *)
val caches : t -> Cache.t

(** Run the socket loop until [SHUTDOWN], SIGINT, or SIGTERM; then
    drain buffered requests, write the snapshot and metrics files (if
    configured), close sockets, and return the number of requests served.
    With [snapshot_file] set and the file present, the registry, caches
    and metrics are restored {e before} the sockets open (a malformed
    snapshot is logged and ignored — boot never fails on it). *)
val serve : t -> int
