(** The router front of the sharded glqld topology ([glqld --router]).

    One select loop that speaks the worker protocol {e unchanged} to
    clients and multiplexes requests over persistent nonblocking
    connections to N shard workers (each a full glqld, see {!Shard}).
    Graph-keyed commands — including v6 [FEATURIZE] and [PREDICT] as
    reads and [TRAIN] as a write keyed by its first source graph —
    forward verbatim to the owning shard (replies are byte-identical to
    a single-process glqld with the same registry); GRAPHS / STATS /
    VERSION / SAVE / RESTORE / MODELS fan out and merge. A dead worker
    yields [ERR_SHARD_DOWN] for its shard's graphs while every other
    shard keeps serving; with [respawn] the worker is relaunched from
    its last snapshot. The router also health-probes every up member
    (periodic PING on the same ordered connection), so a
    wedged-but-alive worker is marked down after [probe_timeout_s] even
    though its socket never reports EOF. Read replicas are added at
    runtime with the operator command [REPLICA <shard>] (snapshot
    shipping: SAVE on the primary, boot the replica from the file) and
    reads round-robin across primary + replicas; TRAIN mirrors to
    replicas like LOAD / MUTATE so PREDICT can fan out across the whole
    group.

    Operator commands answered by the router itself: [TOPOLOGY] (member
    table with pids and states), [ROUTE <name>] (shard placement of a
    graph name), [REPLICA <shard>]. *)

type config = {
  socket_path : string option;  (** front unix socket clients connect to *)
  tcp_port : int option;
  shards : int;
  respawn : bool;  (** relaunch dead managed workers from their argv *)
  max_connections : int;
  max_line_bytes : int;
  max_inbuf_bytes : int;
  boot_timeout_s : float;  (** window for a spawned worker to accept *)
  drain_timeout_s : float;  (** shutdown window for in-flight replies *)
  probe_interval_s : float;
      (** health-probe cadence: the router PINGs each up member this
          often so a wedged-but-connected worker is detected before an
          EOF would surface it; [<= 0] disables probing *)
  probe_timeout_s : float;
      (** window for the oldest unanswered probe before the member is
          marked down. Workers answer strictly in order, so a pong
          queues behind in-flight work — keep this generous (well above
          the slowest legitimate request). *)
  make_replica : (shard:int -> index:int -> Shard.spec) option;
      (** builds the spec of a fresh replica; [None] disables REPLICA *)
  verbose : bool;
}

val default_config : config

(** Merged GRAPHS payload: per-shard lists concatenated and sorted by
    (name, vertices, edges) — byte-identical to a single registry. *)
val merge_graphs : Protocol.json list -> Protocol.json

(** Merged STATS payload. [parts] is [(shard, role, stats)] per member
    ([None] = down). Integer counters of {e primary} parts sum
    field-by-field (and "by_command" key-by-key) in the first primary's
    field order; [protocol_version] is consensus; per-member raw stats
    ride along under "members". *)
val merge_stats :
  router:Protocol.json ->
  shards:int ->
  parts:(int * string * Protocol.json option) list ->
  Protocol.json

(** Merged SAVE/RESTORE payload: per-shard summaries under "shards",
    byte/graph/coloring/plan counters summed. *)
val merge_snapshots : (int * Protocol.json) list -> Protocol.json

type t

(** [create config specs] builds a router over the given members. Every
    shard in [0 .. shards-1] needs exactly one {!Shard.Primary} spec;
    members with [sp_argv = Some argv] are spawned (and respawned) by
    the router, [None] marks externally managed workers it only
    connects to. *)
val create : config -> Shard.spec list -> t

(** Spawn/connect the members, open the front socket, route until
    SIGINT/SIGTERM/SHUTDOWN, then drain in-flight replies, terminate
    managed workers (SIGTERM, escalating to SIGKILL), and return the
    number of requests routed. *)
val serve : t -> int
