(* Shard placement and worker-process plumbing for the sharded topology.

   A shard is one full glqld worker process owning a slice of the graph
   namespace. Placement is a pure function of the graph name: the
   FNV-1a stable hash of the *canonical spec form* of the name, so the
   two spellings of one spec-as-name ("sbm10 + path3" / "sbm10+path3")
   land on the same worker, and the mapping survives restarts and is
   reproducible by external tooling. *)

let id_of_name ~shards name = Glql_util.Stable_hash.shard ~shards (Registry.canonical_spec name)

type role = Primary | Replica of int

let role_label = function
  | Primary -> "primary"
  | Replica i -> Printf.sprintf "replica%d" i

type spec = {
  sp_shard : int;
  sp_role : role;
  sp_socket : string;
  sp_snapshot : string option;
  sp_argv : string array option;
      (* argv to (re)spawn the worker; [None] marks an externally managed
         member the router only connects to (bench rigs). *)
}

(* A worker: a plain glqld serving one unix socket, with a snapshot
   path so SIGTERM leaves warm-restart state behind and --respawn can
   recover it. [extra] forwards governance flags from the router's own
   command line (timeouts, cache budgets, limits). Paths hang off the
   router's front socket, so one --socket flag names the whole topology
   on disk: [base.shardI] for shard I's primary, [base.shardIrJ] for its
   replica J, and each worker's socket path plus [.glqs] for its
   snapshot. *)
let member ~exe ~extra ~shard ~role socket =
  let snapshot = socket ^ ".glqs" in
  {
    sp_shard = shard;
    sp_role = role;
    sp_socket = socket;
    sp_snapshot = Some snapshot;
    sp_argv = Some (Array.of_list (exe :: "--socket" :: socket :: "--snapshot" :: snapshot :: extra));
  }

let plan ~exe ~base_socket ~extra ~shards =
  List.init shards (fun i ->
      member ~exe ~extra ~shard:i ~role:Primary (Printf.sprintf "%s.shard%d" base_socket i))

let replica_spec ~exe ~base_socket ~extra ~shard ~index =
  member ~exe ~extra ~shard ~role:(Replica index)
    (Printf.sprintf "%s.shard%dr%d" base_socket shard index)

(* Spawn a worker; stdio is inherited so worker logs interleave with the
   router's (each worker tags nothing — keep them quiet unless
   --verbose was forwarded). Stale sockets from a previous unclean run
   are unlinked first or bind would fail. *)
let spawn argv =
  let sock_idx = ref (-1) in
  Array.iteri (fun i a -> if a = "--socket" then sock_idx := i + 1) argv;
  if !sock_idx >= 0 && !sock_idx < Array.length argv then
    (try Unix.unlink argv.(!sock_idx) with Unix.Unix_error _ -> ());
  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
