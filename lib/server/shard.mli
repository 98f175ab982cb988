(** Shard placement and worker-process plumbing for the sharded glqld
    topology ([glqld --router]).

    Placement is deterministic: graph name → canonical spec form →
    FNV-1a stable hash → shard id. Every component (router, tests,
    external tooling) computes the same mapping for a fixed worker
    count. *)

(** [id_of_name ~shards name] is the owning shard of [name] in
    [0 .. shards-1]. Uses {!Registry.canonical_spec} so alternate
    spellings of a spec-as-name co-locate. *)
val id_of_name : shards:int -> string -> int

type role = Primary | Replica of int

val role_label : role -> string

(** One member of the topology: a worker process (or an externally
    managed endpoint when [sp_argv = None]) serving one unix socket. *)
type spec = {
  sp_shard : int;
  sp_role : role;
  sp_socket : string;
  sp_snapshot : string option;
  sp_argv : string array option;
}

(** Primary specs for an [shards]-way topology rooted at [base_socket]. *)
val plan : exe:string -> base_socket:string -> extra:string list -> shards:int -> spec list

(** Spec for a fresh read replica of [shard]. *)
val replica_spec :
  exe:string -> base_socket:string -> extra:string list -> shard:int -> index:int -> spec

(** Fork+exec a worker from its argv; returns the pid. Unlinks the
    worker's stale socket first. *)
val spawn : string array -> int
