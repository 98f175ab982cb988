(* glqld — the persistent GEL query server.

     dune exec bin/glqld.exe -- [--socket PATH] [--tcp PORT] [options]

   Speaks the newline-delimited protocol of Glql_server.Protocol over a
   Unix-domain socket (and optionally TCP on localhost). See README.md
   "Serving" for the protocol grammar and an example session. *)

module Server = Glql_server.Server
module Router = Glql_server.Router
module Shard = Glql_server.Shard
module Conn_loop = Glql_server.Conn_loop

let () =
  let socket = ref "glqld.sock" in
  let no_socket = ref false in
  let tcp = ref 0 in
  let router = ref false in
  let workers = ref 3 in
  let respawn = ref false in
  let plan_cache = ref Server.default_config.Server.plan_cache_capacity in
  let coloring_cache = ref Server.default_config.Server.coloring_cache_capacity in
  let plan_cache_bytes = ref Server.default_config.Server.plan_cache_bytes in
  let coloring_cache_bytes = ref Server.default_config.Server.coloring_cache_bytes in
  let feature_cache_bytes = ref Server.default_config.Server.feature_cache_bytes in
  let retrain_stale = ref Server.default_config.Server.retrain_stale_s in
  let timeout = ref Server.default_config.Server.request_timeout_s in
  let max_cells = ref Server.default_config.Server.max_table_cells in
  let max_conns = ref Server.default_config.Server.max_connections in
  let max_line_bytes = ref Server.default_config.Server.max_line_bytes in
  let max_inbuf = ref Server.default_config.Server.max_inbuf_bytes in
  let metrics_file = ref "" in
  let snapshot_file = ref "" in
  let probe_interval = ref Router.default_config.Router.probe_interval_s in
  let probe_timeout = ref Router.default_config.Router.probe_timeout_s in
  let verbose = ref false in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH Unix-domain socket path (default glqld.sock)");
      ("--no-socket", Arg.Set no_socket, " do not listen on a Unix socket (TCP only)");
      ("--tcp", Arg.Set_int tcp, "PORT also listen on localhost TCP PORT");
      ("--plan-cache", Arg.Set_int plan_cache, "N compiled-plan LRU capacity (default 128)");
      ( "--coloring-cache",
        Arg.Set_int coloring_cache,
        "N per-graph colouring LRU capacity (default 64)" );
      ( "--plan-cache-bytes",
        Arg.Set_int plan_cache_bytes,
        "N plan-cache byte budget, 0 disables (default 32 MiB)" );
      ( "--coloring-cache-bytes",
        Arg.Set_int coloring_cache_bytes,
        "N colouring-cache byte budget, 0 disables (default 256 MiB)" );
      ( "--feature-cache-bytes",
        Arg.Set_int feature_cache_bytes,
        "N feature-matrix cache byte budget, 0 disables (default 64 MiB)" );
      ( "--retrain-stale",
        Arg.Set_float retrain_stale,
        "SECONDS refit models with drifted source generations from the idle loop, 0 disables \
         (default 0)" );
      ( "--timeout",
        Arg.Set_float timeout,
        "SECONDS cooperative per-request deadline, 0 disables (default 30)" );
      ("--max-cells", Arg.Set_int max_cells, "N reject queries materialising more table cells");
      ( "--max-conns",
        Arg.Set_int max_conns,
        Printf.sprintf
          "N refuse connections beyond this many concurrent clients (default 256, at most %d)"
          Conn_loop.max_conns_ceiling );
      ( "--max-line-bytes",
        Arg.Set_int max_line_bytes,
        "N drop clients whose request line exceeds N bytes, 0 disables (default 1 MiB)" );
      ( "--max-inbuf",
        Arg.Set_int max_inbuf,
        "N drop clients buffering N bytes without a newline, 0 disables (default 8 MiB)" );
      ( "--router",
        Arg.Set router,
        " sharded mode: spawn worker glqlds and route protocol v6 to them by graph name" );
      ( "--workers",
        Arg.Set_int workers,
        "N shard count in --router mode (default 3); workers listen on SOCKET.shard<i>" );
      ( "--respawn",
        Arg.Set respawn,
        " in --router mode, restart a dead worker from its last snapshot" );
      ( "--probe-interval",
        Arg.Set_float probe_interval,
        "SECONDS health-probe PING cadence in --router mode, 0 disables (default 2)" );
      ( "--probe-timeout",
        Arg.Set_float probe_timeout,
        "SECONDS mark a worker down after an unanswered probe this old (default 15)" );
      ("--metrics-file", Arg.Set_string metrics_file, "PATH dump metrics JSON here on shutdown");
      ( "--snapshot",
        Arg.Set_string snapshot_file,
        "FILE restore this snapshot at boot (if present) and write it on shutdown" );
      ("--verbose", Arg.Set verbose, " log connections and lifecycle events to stderr");
    ]
  in
  let usage = "glqld: GEL query server.\nusage: glqld [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* select(2) cannot watch descriptors at or above FD_SETSIZE: refuse a
     cap the loop could not honour instead of crashing once it fills. *)
  if !max_conns > Conn_loop.max_conns_ceiling then begin
    Printf.eprintf "glqld: --max-conns %d exceeds the ceiling of %d connections\n%s" !max_conns
      Conn_loop.max_conns_ceiling (Arg.usage_string spec usage);
    exit 2
  end;
  (* GLQL_TRACE=<file> dumps every span to a Chrome-trace JSON file. *)
  Glql_util.Trace.setup_from_env ();
  let config =
    {
      Server.socket_path = (if !no_socket then None else Some !socket);
      tcp_port = (if !tcp > 0 then Some !tcp else None);
      plan_cache_capacity = max 1 !plan_cache;
      coloring_cache_capacity = max 1 !coloring_cache;
      plan_cache_bytes = max 0 !plan_cache_bytes;
      coloring_cache_bytes = max 0 !coloring_cache_bytes;
      feature_cache_bytes = max 0 !feature_cache_bytes;
      retrain_stale_s = max 0.0 !retrain_stale;
      request_timeout_s = !timeout;
      max_table_cells = max 1 !max_cells;
      max_connections = max 1 !max_conns;
      max_line_bytes = max 0 !max_line_bytes;
      max_inbuf_bytes = max 0 !max_inbuf;
      metrics_file = (if !metrics_file = "" then None else Some !metrics_file);
      snapshot_file = (if !snapshot_file = "" then None else Some !snapshot_file);
      verbose = !verbose;
    }
  in
  let run () =
    if not !router then Server.serve (Server.create config)
    else begin
      (* Router front: N worker glqlds on SOCKET.shard<i>, each with a
         snapshot path next to its socket (so --respawn and SIGTERM
         leave warm-restart state), governed by the same flags. *)
      let exe = Sys.executable_name in
      let base_socket = !socket in
      let extra =
        [
          "--plan-cache"; string_of_int !plan_cache;
          "--coloring-cache"; string_of_int !coloring_cache;
          "--plan-cache-bytes"; string_of_int !plan_cache_bytes;
          "--coloring-cache-bytes"; string_of_int !coloring_cache_bytes;
          "--feature-cache-bytes"; string_of_int !feature_cache_bytes;
          (* Every member (primary and replicas) runs the same
             deterministic refit locally — that IS the replica mirroring
             for retrained models (same spec + seed => same weights). *)
          "--retrain-stale"; Printf.sprintf "%g" !retrain_stale;
          "--timeout"; Printf.sprintf "%g" !timeout;
          "--max-cells"; string_of_int !max_cells;
          "--max-conns"; string_of_int !max_conns;
          "--max-line-bytes"; string_of_int !max_line_bytes;
          "--max-inbuf"; string_of_int !max_inbuf;
        ]
        @ (if !verbose then [ "--verbose" ] else [])
      in
      let specs = Shard.plan ~exe ~base_socket ~extra ~shards:(max 1 !workers) in
      let router_config =
        {
          Router.socket_path = (if !no_socket then None else Some !socket);
          tcp_port = (if !tcp > 0 then Some !tcp else None);
          shards = max 1 !workers;
          respawn = !respawn;
          max_connections = max 1 !max_conns;
          max_line_bytes = max 0 !max_line_bytes;
          max_inbuf_bytes = max 0 !max_inbuf;
          boot_timeout_s = Router.default_config.Router.boot_timeout_s;
          drain_timeout_s = Router.default_config.Router.drain_timeout_s;
          probe_interval_s = !probe_interval;
          probe_timeout_s = !probe_timeout;
          make_replica =
            Some (fun ~shard ~index -> Shard.replica_spec ~exe ~base_socket ~extra ~shard ~index);
          verbose = !verbose;
        }
      in
      Router.serve (Router.create router_config specs)
    end
  in
  match run () with
  | _served -> exit 0
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "glqld: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 1
  | exception Invalid_argument msg ->
      Printf.eprintf "glqld: %s\n" msg;
      exit 1
