(* The router front of the sharded glqld topology.

   Speaks the worker protocol *unchanged* to clients and multiplexes
   every request onto persistent nonblocking connections to N shard
   workers (each a full glqld owning the graph names that stable-hash to
   its shard, see {!Shard}), all on the one select loop of {!Conn_loop}.
   Each client line is tokenized once and placed by one function with a
   row per command ({!place}). Graph-keyed commands (LOAD /
   MUTATE / QUERY / EXPLAIN / WL / KWL / HOM / FEATURIZE / TRAIN /
   PREDICT) forward verbatim to the owning shard, so their replies are
   byte-identical to a single-process glqld holding the same registry —
   with one placement caveat: a model lives on the shard of its first
   TRAIN source graph, so PREDICT finds it only for feature graphs that
   co-hash with that source (the same constraint multi-graph TRAIN
   already has); a PREDICT routes by its graph, and elsewhere the
   worker's ERR_UNKNOWN_MODEL stands.
   Registry-wide commands (GRAPHS / STATS / VERSION / SAVE / RESTORE /
   MODELS) fan out and the replies are merged by the pure functions
   below. The router also health-probes up members with periodic PINGs
   so a wedged worker is detected without waiting for an EOF.

   Ordering: a client's replies must come back in request order even
   though shards answer at their own pace, so every request takes a
   [slot] in the client's FIFO; replies land in their slot and the queue
   flushes head-first. Upstream, each member connection keeps its own
   FIFO of reply destinations — workers answer in request order on one
   connection, which pairs replies to destinations with no tagging and
   no protocol change.

   Failure: a member EOF/write-error marks it down and fails its
   in-flight destinations with ERR_SHARD_DOWN; requests for that shard's
   graphs keep failing fast while every other shard keeps serving. With
   [respawn] the router relaunches the worker from its argv — the worker
   boots from its last snapshot ([--snapshot] is in the argv) — and
   reconnects asynchronously; reads for the shard resume once it is up.

   Read replicas: REPLICA <shard> ships a snapshot (SAVE on the primary
   to the replica's snapshot path), spawns a fresh worker booting from
   it, and adds it to the shard's member list; read commands round-robin
   across primary + live replicas, and LOAD / RESTORE broadcast to
   replicas so they stay in sync. *)

module P = Protocol
module Json = Glql_util.Json
module Clock = Glql_util.Clock

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
  probe_interval_s : float;  (** health-probe PING cadence; <= 0 disables *)
  probe_timeout_s : float;  (** unanswered-probe window before marking down *)
  make_replica : (shard:int -> index:int -> Shard.spec) option;
      (** builds the spec of a fresh replica; [None] disables REPLICA *)
  verbose : bool;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    shards = 3;
    respawn = false;
    max_connections = 256;
    max_line_bytes = 1024 * 1024;
    max_inbuf_bytes = 8 * 1024 * 1024;
    boot_timeout_s = 15.0;
    drain_timeout_s = 3.0;
    probe_interval_s = 2.0;
    probe_timeout_s = 15.0;
    make_replica = None;
    verbose = false;
  }

let shard_down_code = "ERR_SHARD_DOWN"

let shard_down_line shard =
  P.err_line (P.error ~code:shard_down_code (Printf.sprintf "shard %d is down" shard))

(* --- pure reply merging -------------------------------------------------- *)

(* Fan-out merges are pure (json in, json out) so the unit tests cover
   them without sockets or processes. *)

(* GRAPHS: concatenate the per-shard lists and re-sort by (name,
   vertices, edges) — the exact order [Registry.list] yields in a
   single process, so the merged reply is byte-identical to one. *)
let entries parts = List.concat_map (function P.List items -> items | other -> [ other ]) parts

let merge_graphs parts =
  let key = function
    | P.Obj _ as o ->
        let str k = match Json.member k o with Some (P.Str s) -> s | _ -> "" in
        let int k = match Json.int_member k o with Some i -> i | None -> 0 in
        (str "name", int "vertices", int "edges")
    | _ -> ("", 0, 0)
  in
  P.List (List.sort (fun a b -> compare (key a) (key b)) (entries parts))

(* MODELS: per-shard registries are disjoint under router-driven TRAIN
   (a model lives on the shard of its first source graph), so the merge
   is a plain union re-sorted by model name — the order [Models.list]
   yields in a single process. Duplicates (same name trained directly
   against two workers behind the router's back) keep their first
   occurrence. *)
let merge_models parts =
  let name = function
    | P.Obj _ as o -> ( match Json.member "name" o with Some (P.Str s) -> s | _ -> "")
    | _ -> ""
  in
  let sorted = List.stable_sort (fun a b -> compare (name a) (name b)) (entries parts) in
  let rec dedup = function
    | a :: b :: rest when name a = name b -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  P.List (dedup sorted)

(* STATS: the per-shard primaries' integer counters sum field-by-field
   (in the first primary's field order, so the merged layout is stable),
   "by_command" sums key-by-key, and non-summable fields (latency
   percentiles, stages, restored) stay per-member under "members".
   [protocol_version] is consensus, not a sum. Replica counters are
   reported per-member but excluded from the sums: a replica serves
   copies of its primary's graphs, so summing it would double-count
   registry-shaped fields like [graphs_registered]. *)
let merge_stats ~router ~shards ~parts =
  let primaries =
    List.filter_map
      (fun (_, role, j) -> match j with Some j when role = "primary" -> Some j | _ -> None)
      parts
  in
  let int_field j k = match Json.int_member k j with Some i -> i | None -> 0 in
  let summed =
    match primaries with
    | [] -> []
    | first :: _ ->
        let fields = match first with P.Obj fs -> fs | _ -> [] in
        List.filter_map
          (fun (k, v) ->
            match (k, v) with
            | "protocol_version", v -> Some (k, v)
            | "by_command", P.Obj _ ->
                let tables = List.filter_map (Json.member "by_command") primaries in
                let keys =
                  List.concat_map (function P.Obj fs -> List.map fst fs | _ -> []) tables
                  |> List.sort_uniq compare
                in
                let total cmd = List.fold_left (fun acc bc -> acc + int_field bc cmd) 0 tables in
                Some (k, P.Obj (List.map (fun cmd -> (cmd, P.Int (total cmd))) keys))
            | _, P.Int _ ->
                Some (k, P.Int (List.fold_left (fun acc j -> acc + int_field j k) 0 primaries))
            | _ -> None)
          fields
  in
  let member_json (shard, role, j) =
    P.Obj
      [
        ("shard", P.Int shard);
        ("role", P.Str role);
        ("up", P.Bool (j <> None));
        ("stats", match j with Some j -> j | None -> P.Null);
      ]
  in
  P.Obj
    (summed
    @ [
        ("shards", P.Int shards);
        ("router", router);
        ("members", P.List (List.map member_json parts));
      ])

(* SAVE / RESTORE: per-shard summaries listed under "shards", size
   counters summed at the top level. *)
let merge_snapshots parts =
  let sum k =
    List.fold_left
      (fun acc (_, j) -> acc + match Json.int_member k j with Some i -> i | None -> 0)
      0 parts
  in
  let entry (shard, j) =
    let fields = match j with P.Obj fs -> fs | other -> [ ("value", other) ] in
    P.Obj (("shard", P.Int shard) :: fields)
  in
  P.Obj
    [
      ("shards", P.List (List.map entry parts));
      ("bytes", P.Int (sum "bytes"));
      ("graphs", P.Int (sum "graphs"));
      ("colorings", P.Int (sum "colorings"));
      ("plans", P.Int (sum "plans"));
    ]


(* --- topology state ------------------------------------------------------ *)

type mstate =
  | Down
  | Connecting of int64  (* give-up deadline *)
  | Up of Conn_loop.link

(* A client connection; its loop state is the FIFO of replies owed, in
   request order. *)
type client = slot Queue.t Conn_loop.conn

and slot = {
  mutable s_reply : string option;
  s_client : client;
  s_cmd : string;
  s_t0 : int64;
}

type dest =
  | To_slot of slot  (* forward the worker's reply line verbatim *)
  | Write_primary of slot * mirror_group
      (* primary leg of a mirrored write: the reply forwards verbatim to
         the client and settles the group's deferred mirror failures *)
  | Part of agg * int  (* one piece of a fan-out *)
  | Mirror of mirror_group  (* replica leg of a mirrored write *)
  | Discard  (* reply checked for nothing (SHUTDOWN, replica RESTORE) *)
  | Replica_save of slot * Shard.spec  (* SAVE-on-primary step of REPLICA *)
  | Probe  (* router-originated health PING; the pong clears the timer *)

and agg = {
  a_slot : slot;
  a_parts : (int * string * string option) array;  (* shard, role, raw reply *)
  mutable a_remaining : int;
  a_finish : (int * string * string option) array -> string;
}

(* One LOAD / MUTATE / TRAIN fanned to a primary plus its replicas. The
   primary's verdict decides what a replica's ERR reply means: primary
   applied the write but the replica did not → the replica has silently
   diverged (a TRAIN it missed leaves later round-robined PREDICTs
   failing intermittently), so it is marked down — with [respawn] it
   reboots from its snapshot instead of serving as a diverged copy. Both
   rejected the request (bad recipe, invalid batch) → still in sync,
   nothing to do. Mirror replies can land before the primary's on
   another connection, so early failures are deferred until the
   primary's verdict arrives. *)
and mirror_group = {
  mutable mg_primary_ok : bool option;  (* None until the primary replies *)
  mutable mg_deferred : member list;  (* mirrors that failed before the verdict *)
}

and member = {
  m_spec : Shard.spec;
  mutable m_pid : int option;
  mutable m_state : mstate;
  mutable m_respawns : int;
  m_pending : dest Queue.t;
  mutable m_notify : slot option;  (* REPLICA caller waiting for first accept *)
  (* Health probing: the router PINGs each up member every
     [probe_interval_s]; workers answer strictly in request order, so
     the pong lands behind whatever real work is queued ahead of it.
     [m_probe_sent] is the start of the unanswered-probe window, and it
     slides forward while real (non-probe) requests are pending on the
     member — a TRAIN with big EPOCHS or a cold kwl3 legitimately holds
     the pong up for minutes, and a busy worker must never read as a
     wedged one. The [probe_timeout_s] clock therefore only runs while
     the probe is the member's whole queue: a worker with nothing to do
     but answer a PING, and hasn't. *)
  mutable m_probe_sent : int64 option;
  mutable m_last_probe : int64;  (* last probe send time, 0 = never *)
  mutable m_last_pong : int64;  (* last pong receive time, 0 = never *)
  mutable m_probes_sent : int;
  mutable m_pongs : int;
}

type group = {
  g_shard : int;
  mutable g_members : member list;  (* primary first, then replicas *)
  mutable g_rr : int;  (* read round-robin cursor *)
}

type t = {
  config : config;
  groups : group array;
  metrics : Metrics.t;
  stop_flag : bool Atomic.t;
}

let new_member ?notify spec =
  {
    m_spec = spec;
    m_pid = None;
    m_state = Down;
    m_respawns = 0;
    m_pending = Queue.create ();
    m_notify = notify;
    m_probe_sent = None;
    m_last_probe = 0L;
    m_last_pong = 0L;
    m_probes_sent = 0;
    m_pongs = 0;
  }

let create config specs =
  if config.shards <= 0 then invalid_arg "Router.create: shards must be positive";
  let groups =
    Array.init config.shards (fun i -> { g_shard = i; g_members = []; g_rr = 0 })
  in
  List.iter
    (fun spec ->
      let g = groups.(spec.Shard.sp_shard) in
      g.g_members <- g.g_members @ [ new_member spec ])
    specs;
  Array.iter
    (fun g ->
      (* Keep the primary at the head regardless of spec order. *)
      let primaries, replicas =
        List.partition (fun m -> m.m_spec.Shard.sp_role = Shard.Primary) g.g_members
      in
      g.g_members <- primaries @ replicas;
      if primaries = [] then
        invalid_arg (Printf.sprintf "Router.create: shard %d has no primary" g.g_shard))
    groups;
  { config; groups; metrics = Metrics.create (); stop_flag = Atomic.make false }

let log t fmt =
  Printf.ksprintf (fun s -> if t.config.verbose then Printf.eprintf "glqld-router: %s\n%!" s) fmt

let all_members t =
  Array.to_list t.groups |> List.concat_map (fun g -> g.g_members)

let link_of m = match m.m_state with Up l -> Some l | _ -> None

let is_up m = Option.is_some (link_of m)

let role_label m = Shard.role_label m.m_spec.Shard.sp_role

(* Launch the member's worker when the router manages it, and give it
   [boot_timeout_s] to accept. *)
let boot t m =
  Option.iter
    (fun argv ->
      let pid = Shard.spawn argv in
      m.m_pid <- Some pid;
      log t "shard %d %s spawned as pid %d" m.m_spec.Shard.sp_shard (role_label m) pid)
    m.m_spec.Shard.sp_argv;
  m.m_state <-
    Connecting (Int64.add (Clock.now_ns ()) (Int64.of_float (t.config.boot_timeout_s *. 1e9)))

(* --- client side --------------------------------------------------------- *)

(* Move completed head slots into the client's out buffer; later slots
   wait their turn. *)
let pump_client (c : client) =
  let rec go () =
    match Queue.peek_opt (Conn_loop.data c) with
    | Some { s_reply = Some line; _ } ->
        ignore (Queue.pop (Conn_loop.data c));
        Conn_loop.send c line;
        go ()
    | _ -> ()
  in
  go ()

let fill_slot t slot line =
  if slot.s_reply = None then begin
    slot.s_reply <- Some line;
    Metrics.record t.metrics ~command:slot.s_cmd ~ok:(P.is_ok line)
      ~latency_ns:(Int64.sub (Clock.now_ns ()) slot.s_t0);
    pump_client slot.s_client
  end

let new_slot (c : client) cmd =
  let slot = { s_reply = None; s_client = c; s_cmd = cmd; s_t0 = Clock.now_ns () } in
  Queue.push slot (Conn_loop.data c);
  slot

(* --- upstream side ------------------------------------------------------- *)

let complete_part t agg i reply =
  let shard, role, _ = agg.a_parts.(i) in
  agg.a_parts.(i) <- (shard, role, reply);
  agg.a_remaining <- agg.a_remaining - 1;
  if agg.a_remaining = 0 then fill_slot t agg.a_slot (agg.a_finish agg.a_parts)

let fail_dest t shard dest =
  match dest with
  | To_slot slot -> fill_slot t slot (shard_down_line shard)
  | Write_primary (slot, mg) ->
      (* Dead primary: no verdict to audit mirrors against. *)
      mg.mg_primary_ok <- Some false;
      mg.mg_deferred <- [];
      fill_slot t slot (shard_down_line shard)
  | Part (agg, i) -> complete_part t agg i None
  | Mirror _ | Discard | Probe -> ()
  | Replica_save (slot, _) ->
      fill_slot t slot
        (P.err_line
           (P.error ~code:shard_down_code
              (Printf.sprintf "shard %d primary died during replica snapshot" shard)))

(* Answer the REPLICA caller waiting for this member's first accept. *)
let notify t m line =
  Option.iter
    (fun slot ->
      m.m_notify <- None;
      fill_slot t slot line)
    m.m_notify

(* SIGKILL a managed worker and wait it out. SIGKILL also ends a stopped
   process, so this never blocks on a wedged one. *)
let kill_and_reap m =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let rec wait () =
        match Unix.waitpid [] pid with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error _ -> ()
      in
      wait ())
    m.m_pid;
  m.m_pid <- None

let member_down t m reason =
  Option.iter Conn_loop.close_link (link_of m);
  m.m_state <- Down;
  let shard = m.m_spec.Shard.sp_shard in
  log t "shard %d %s down: %s (%d in-flight failed)" shard (role_label m) reason
    (Queue.length m.m_pending);
  Queue.iter (fun dest -> fail_dest t shard dest) m.m_pending;
  Queue.clear m.m_pending;
  m.m_probe_sent <- None;
  m.m_last_probe <- 0L;
  notify t m
    (P.err_line
       (P.error ~code:shard_down_code (Printf.sprintf "shard %d member died booting" shard)));
  if t.config.respawn && m.m_spec.Shard.sp_argv <> None && m.m_respawns < 5 then begin
    m.m_respawns <- m.m_respawns + 1;
    log t "shard %d %s respawning (attempt %d)" shard (role_label m) m.m_respawns;
    (* A member is also marked down while its process lives on (probe
       timeout, mirror divergence, a dropped link); its replacement
       unlinks and rebinds the socket, so the old one must go first. *)
    kill_and_reap m;
    boot t m
  end

(* Queue a request line on a member; the loop flushes it this pass. *)
let send_upstream t m line dest =
  match m.m_state with
  | Up l ->
      Conn_loop.link_send l line;
      Queue.push dest m.m_pending
  | _ -> fail_dest t m.m_spec.Shard.sp_shard dest

(* Reap exited children so a killed worker can't linger as a zombie. *)
let reap t =
  List.iter
    (fun m ->
      match m.m_pid with
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, _ -> m.m_pid <- None
          | exception Unix.Unix_error _ -> m.m_pid <- None)
      | None -> ())
    (all_members t)

let quote_word w =
  if w <> "" && String.for_all (fun c -> c <> ' ' && c <> '\'' && c <> '"') w then w
  else "\"" ^ w ^ "\""

let pick_read g =
  let ups = List.filter is_up g.g_members in
  match ups with
  | [] -> None
  | _ ->
      let m = List.nth ups (g.g_rr mod List.length ups) in
      g.g_rr <- g.g_rr + 1;
      Some m

let group_for t name = t.groups.(Shard.id_of_name ~shards:t.config.shards name)

let member_json m =
  P.Obj
    [
      ("shard", P.Int m.m_spec.Shard.sp_shard);
      ("role", P.Str (role_label m));
      ("socket", P.Str m.m_spec.Shard.sp_socket);
      ("pid", match m.m_pid with Some pid -> P.Int pid | None -> P.Null);
      ( "state",
        P.Str (match m.m_state with Up _ -> "up" | Connecting _ -> "connecting" | Down -> "down")
      );
      ("pending", P.Int (Queue.length m.m_pending));
      ("probes_sent", P.Int m.m_probes_sent);
      ("pongs", P.Int m.m_pongs);
      ( "last_pong_ms",
        if Int64.equal m.m_last_pong 0L then P.Null
        else P.Int (Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) m.m_last_pong) 1_000_000L))
      );
    ]

let topology_json t =
  P.Obj
    [
      ("shards", P.Int t.config.shards);
      ("respawn", P.Bool t.config.respawn);
      ("members", P.List (List.map member_json (all_members t)));
    ]

let router_stats_json t =
  Metrics.to_json t.metrics
    ~extra:
      [
        ("protocol_version", P.Int P.protocol_version);
        ("role", P.Str "router");
        ("shards", P.Int t.config.shards);
      ]

(* --- fan-out merges ------------------------------------------------------ *)

let no_shards_up = P.err_line (P.error ~code:shard_down_code "no shards are up")

(* Parse the payload of an OK reply line; None for ERR / absent / unparsable. *)
let payload_of = function
  | None -> None
  | Some line ->
      if P.is_ok line && String.length line > 3 then
        match Json.parse (String.sub line 3 (String.length line - 3)) with
        | Ok j -> Some j
        | Error _ -> None
      else None

(* VERSION (and GENERATORS, answered by one member): the shared reply
   when every answering worker agrees. *)
let finish_version parts =
  let oks = Array.to_list parts |> List.filter_map (fun (_, _, r) -> r) |> List.filter P.is_ok in
  match oks with
  | [] -> no_shards_up
  | first :: rest ->
      if List.for_all (( = ) first) rest then first
      else
        (* Mixed worker builds mid-upgrade: expose the disagreement. *)
        P.ok
          (P.Obj
             [
               ( "shards",
                 P.List
                   (Array.to_list parts
                   |> List.map (fun (shard, _, r) ->
                          P.Obj
                            [
                              ("shard", P.Int shard);
                              ("version", match payload_of r with Some j -> j | None -> P.Null);
                            ])) );
             ])

(* GRAPHS / MODELS: merge whatever shards answered. *)
let finish_merged merge parts =
  let payloads = Array.to_list parts |> List.filter_map (fun (_, _, r) -> payload_of r) in
  if payloads = [] then no_shards_up else P.ok (merge payloads)

let finish_stats t parts =
  let jparts =
    Array.to_list parts |> List.map (fun (shard, role, r) -> (shard, role, payload_of r))
  in
  P.ok (merge_stats ~router:(router_stats_json t) ~shards:t.config.shards ~parts:jparts)

(* Any failing part fails the whole reply, forwarding the first failure
   line (already a classified ERR) verbatim. *)
let first_failure parts =
  Array.to_list parts
  |> List.find_map (fun (shard, _, r) ->
         match r with
         | None -> Some (shard_down_line shard)
         | Some line when not (P.is_ok line) -> Some line
         | Some _ -> None)

let finish_snapshots parts =
  (* A partial snapshot set silently missing a shard would restore into
     silent data loss. *)
  match first_failure parts with
  | Some line -> line
  | None ->
      let payloads =
        Array.to_list parts
        |> List.filter_map (fun (shard, _, r) ->
               match payload_of r with Some j -> Some (shard, j) | None -> None)
      in
      P.ok (merge_snapshots payloads)

(* Merge the sub-batch replies of a fanned batched PREDICT. Chunks are
   contiguous in request order, so forwarding the first failing part
   verbatim reproduces the single daemon's first-error semantics (its
   whole reply is the first failing graph's classified error); otherwise
   the per-member ["batch"] arrays concatenate back into request order
   and the envelope is rebuilt in the worker's exact field order, which
   round-trips byte-identically through {!Json}. *)
let finish_predict_batch model ~graphs parts =
  match first_failure parts with
  | Some line -> line
  | None ->
      let payloads = Array.to_list parts |> List.filter_map (fun (_, _, r) -> payload_of r) in
      let field name p = match p with P.Obj fields -> List.assoc_opt name fields | _ -> None in
      let batch =
        List.concat_map
          (fun p -> match field "batch" p with Some (P.List items) -> items | _ -> [])
          payloads
      in
      if List.length batch <> graphs then
        P.err_line
          (P.error ~code:"ERR_INTERNAL"
             (Printf.sprintf "batched PREDICT merge produced %d of %d rows" (List.length batch)
                graphs))
      else
        let first name =
          match payloads with
          | p :: _ -> Option.value ~default:P.Null (field name p)
          | [] -> P.Null
        in
        P.ok
          (P.Obj
             [
               ("model", P.Str model);
               ("task", first "task");
               ("mode", first "mode");
               ("graphs", P.Int graphs);
               ("batch", P.List batch);
             ])

let primaries t = Array.to_list t.groups |> List.map (fun g -> List.hd g.g_members)

(* --- replies from members ------------------------------------------------ *)

let handle_replica_saved t slot spec line =
  if not (P.is_ok line) then fill_slot t slot line
  else begin
    let m = new_member ~notify:slot spec in
    boot t m;
    let g = t.groups.(spec.Shard.sp_shard) in
    g.g_members <- g.g_members @ [ m ]
  end

let mirror_diverged = "mirrored write failed where the primary succeeded"

let dispatch_reply t m dest line =
  match dest with
  | To_slot slot -> fill_slot t slot line
  | Write_primary (slot, mg) ->
      fill_slot t slot line;
      let ok = P.is_ok line in
      mg.mg_primary_ok <- Some ok;
      let deferred = mg.mg_deferred in
      mg.mg_deferred <- [];
      if ok then List.iter (fun r -> if is_up r then member_down t r mirror_diverged) deferred
  | Part (agg, i) -> complete_part t agg i (Some line)
  | Mirror mg ->
      if not (P.is_ok line) then (
        match mg.mg_primary_ok with
        | Some true -> member_down t m mirror_diverged
        | Some false -> ()  (* the primary rejected it too: still in sync *)
        | None -> mg.mg_deferred <- m :: mg.mg_deferred)
  | Discard -> ()
  | Probe ->
      m.m_probe_sent <- None;
      m.m_last_pong <- Clock.now_ns ();
      m.m_pongs <- m.m_pongs + 1
  | Replica_save (slot, spec) -> handle_replica_saved t slot spec line

(* Workers answer in request order on one connection, so a reply line
   pairs with the oldest pending destination. *)
let member_line t m line =
  match Queue.take_opt m.m_pending with
  | Some dest -> dispatch_reply t m dest line
  | None -> log t "shard %d sent an unsolicited line" m.m_spec.Shard.sp_shard

(* One nonblocking connection attempt per tick while Connecting. *)
let try_connect t m =
  match m.m_state with
  | Connecting deadline ->
      let sock = m.m_spec.Shard.sp_socket in
      let connected =
        if Sys.file_exists sock then begin
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () ->
              Unix.set_nonblock fd;
              m.m_state <-
                Up (Conn_loop.link fd ~on_line:(member_line t m) ~on_down:(member_down t m));
              log t "shard %d %s up on %s" m.m_spec.Shard.sp_shard (role_label m) sock;
              notify t m
                (P.ok
                   (P.Obj
                      [
                        ("shard", P.Int m.m_spec.Shard.sp_shard);
                        ("role", P.Str (role_label m));
                        ("socket", P.Str sock);
                      ]));
              true
          | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              false
        end
        else false
      in
      if (not connected) && Int64.compare (Clock.now_ns ()) deadline > 0 then begin
        m.m_state <- Down;
        log t "shard %d %s failed to come up within %.1fs" m.m_spec.Shard.sp_shard (role_label m)
          t.config.boot_timeout_s;
        notify t m
          (P.err_line
             (P.error ~code:shard_down_code
                (Printf.sprintf "shard %d replica failed to start" m.m_spec.Shard.sp_shard)))
      end
  | _ -> ()

(* Health probes: PING each up member on a cadence and mark it down when
   the oldest pong is overdue. *)
let probe t =
  let now = Clock.now_ns () in
  let interval_ns = Int64.of_float (t.config.probe_interval_s *. 1e9) in
  let timeout_ns = Int64.of_float (t.config.probe_timeout_s *. 1e9) in
  List.iter
    (fun m ->
      if is_up m then
        match m.m_probe_sent with
        | Some sent ->
            (* In-order workers queue the pong behind real work, so an
               unanswered probe only counts against the timeout while
               nothing else is pending: slide the window whenever the
               member is busy with actual requests. *)
            let busy =
              Queue.fold
                (fun acc d -> acc || match d with Probe -> false | _ -> true)
                false m.m_pending
            in
            if busy then m.m_probe_sent <- Some now
            else if Int64.compare (Int64.sub now sent) timeout_ns > 0 then
              member_down t m
                (Printf.sprintf "health probe unanswered for %.1fs" t.config.probe_timeout_s)
        | None ->
            if Int64.compare (Int64.sub now m.m_last_probe) interval_ns >= 0 then begin
              m.m_probe_sent <- Some now;
              m.m_last_probe <- now;
              m.m_probes_sent <- m.m_probes_sent + 1;
              send_upstream t m "PING" Probe
            end)
    (all_members t)

(* --- request placement --------------------------------------------------- *)

(* Router-local commands (TOPOLOGY / ROUTE / REPLICA) are deliberately
   *not* in {!Protocol}: the client protocol is v6 unchanged, and these
   are operator commands of the topology layer only. *)
type command = Topology | Route of string | Replica_of of int | Request of P.request

(* The one parse of a client line (it is tokenized once). *)
let parse_command line =
  Result.bind (P.tokenize line) (function
    | [ cmd ] when String.uppercase_ascii cmd = "TOPOLOGY" -> Ok Topology
    | [ cmd; name ] when String.uppercase_ascii cmd = "ROUTE" -> Ok (Route name)
    | [ cmd; shard ] when String.uppercase_ascii cmd = "REPLICA" && int_of_string_opt shard <> None
      ->
        Ok (Replica_of (int_of_string shard))
    | tokens -> Result.map (fun p -> Request p.P.req) (P.parse_tokens tokens))

(* Metrics label: the command name, like the single daemon's; lines that
   fail to parse all count as INVALID. *)
let command_label = function
  | Ok Topology -> "TOPOLOGY"
  | Ok (Route _) -> "ROUTE"
  | Ok (Replica_of _) -> "REPLICA"
  | Ok (Request req) -> P.command_name req
  | Error _ -> "INVALID"

(* Where a request goes. *)
type placement =
  | Local of string  (* the router answers this reply line itself *)
  | Read of group  (* a live member, round-robin; the reply forwards verbatim *)
  | Write of group  (* the primary answers; live replicas mirror (see {!mirror_group}) *)
  | Fanout of (member * string) list * ((int * string * string option) array -> string)
      (* one line per member; the replies merge into one *)
  | Ship_replica of member * Shard.spec * string
      (* REPLICA: SAVE on the primary into the new replica's boot
         snapshot, then boot it there; the reply waits for its accept *)

let bad_arg msg = Local (P.err_line (P.error ~code:"ERR_BAD_ARG" msg))

(* Each shard snapshots to its own file: <path>.shardI when a path was
   given, the worker's own --snapshot default otherwise. *)
let snapshot_line cmd requested m =
  match requested with
  | Some path ->
      Printf.sprintf "%s %s" cmd
        (quote_word (Printf.sprintf "%s.shard%d" path m.m_spec.Shard.sp_shard))
  | None -> cmd

let snapshot_fanout t cmd requested =
  Fanout (List.map (fun m -> (m, snapshot_line cmd requested m)) (primaries t), finish_snapshots)

let fanout_same targets line finish = Fanout (List.map (fun m -> (m, line)) targets, finish)

(* PREDICT needs the model AND every feature graph on one worker (a
   worker can only featurize graphs it owns, and the model lives on the
   shard of its first TRAIN source). It routes by graph, whose replicas
   mirrored the TRAIN; a model that lives elsewhere answers the worker's
   own ERR_UNKNOWN_MODEL. A batch over several live members splits into
   contiguous chunks, one sub-batch per member, and the ["batch"] arrays
   concatenate back into request order (see {!finish_predict_batch}). *)
let place_predict t model graphs ~batch =
  match List.sort_uniq compare (List.map (Shard.id_of_name ~shards:t.config.shards) graphs) with
  | [] -> bad_arg "PREDICT ON: empty graph list"
  | _ :: _ :: _ as shards ->
      bad_arg
        (Printf.sprintf
           "batched PREDICT through the router needs every graph on one shard, but these hash to \
            shards %s: co-hash the graph names with the model's first TRAIN source"
           (String.concat ", " (List.map string_of_int shards)))
  | [ shard ] -> (
      let g = t.groups.(shard) in
      match List.filter is_up g.g_members with
      | _ :: _ :: _ as ups when batch ->
          let n = List.length graphs in
          let size = (n + List.length ups - 1) / List.length ups in
          let chunks =
            List.mapi (fun j m -> (m, List.filteri (fun i _ -> i / size = j) graphs)) ups
            |> List.filter (fun (_, gs) -> gs <> [])
          in
          Fanout
            ( List.map
                (fun (m, gs) ->
                  let names = quote_word (String.concat "," gs) in
                  (m, Printf.sprintf "PREDICT %s ON %s" (quote_word model) names))
                chunks,
              finish_predict_batch model ~graphs:n )
      | _ -> (* one live member takes the line verbatim, TRACE included *) Read g)

(* One row per command. Rows with side effects (QUIT, SHUTDOWN, TRAIN,
   RESTORE) perform them here; [route] then carries the placement out. *)
let place t (c : client) line = function
  | Topology -> Local (P.ok (topology_json t))
  | Route name ->
      let shard = Shard.id_of_name ~shards:t.config.shards name in
      Local
        (P.ok
           (P.Obj
              [
                ("graph", P.Str name);
                ("shard", P.Int shard);
                ("members", P.List (List.map member_json t.groups.(shard).g_members));
              ]))
  | Replica_of shard -> (
      if shard < 0 || shard >= t.config.shards then
        bad_arg (Printf.sprintf "no such shard %d (0..%d)" shard (t.config.shards - 1))
      else
        match t.config.make_replica with
        | None -> bad_arg "replica spawning is not available here"
        | Some make -> (
            let g = t.groups.(shard) in
            let primary = List.hd g.g_members in
            if not (is_up primary) then Local (shard_down_line shard)
            else
              let spec = make ~shard ~index:(List.length g.g_members) in
              match spec.Shard.sp_snapshot with
              | None ->
                  Local
                    (P.err_line (P.error ~code:"ERR_INTERNAL" "replica spec has no snapshot path"))
              | Some snap -> Ship_replica (primary, spec, snap)))
  | Request P.Hello ->
      Local
        (P.ok
           (P.Obj
              [
                ("server", P.Str "glqld");
                ("version", P.Str Server.version);
                ("protocol_version", P.Int P.protocol_version);
                ("role", P.Str "router");
                ("shards", P.Int t.config.shards);
              ]))
  | Request P.Ping -> Local (P.ok (P.Str "pong"))
  | Request P.Quit ->
      Conn_loop.quit c;
      Local (P.ok (P.Str "bye"))
  | Request P.Shutdown ->
      List.iter (fun m -> if is_up m then send_upstream t m "SHUTDOWN" Discard) (all_members t);
      Atomic.set t.stop_flag true;
      Local (P.ok (P.Str "shutting down"))
  | Request P.Version -> fanout_same (primaries t) "VERSION" finish_version
  | Request P.Graphs -> fanout_same (primaries t) "GRAPHS" (finish_merged merge_graphs)
  | Request P.Models -> fanout_same (primaries t) "MODELS" (finish_merged merge_models)
  | Request P.Stats -> fanout_same (all_members t) "STATS" (finish_stats t)
  | Request P.Generators -> (
      (* Static and the same on every worker: any live member answers. *)
      match List.find_opt is_up (all_members t) with
      | Some m -> fanout_same [ m ] line finish_version
      | None -> Local no_shards_up)
  | Request (P.Load (name, _) | P.Mutate (name, _)) -> Write (group_for t name)
  | Request (P.Train spec) -> (
      (* TRAIN is a write keyed by its *first* source graph, mirrored so
         PREDICT can round-robin across the group. A multi-graph TRAIN
         needs all its graphs on one shard (co-hashing names); a graph
         living elsewhere fails naturally with ERR_UNKNOWN_GRAPH from
         the worker. *)
      match spec.P.t_graphs with
      | [] -> bad_arg "TRAIN needs ON <graphs>"
      | name :: _ -> Write (group_for t name))
  | Request
      ( P.Query (name, _)
      | P.Explain (name, _)
      | P.Wl (name, _)
      | P.Kwl (name, _)
      | P.Hom (name, _)
      | P.Featurize (name, _, _) ) ->
      Read (group_for t name)
  | Request (P.Predict (model, name, _)) -> place_predict t model [ name ] ~batch:false
  | Request (P.Predict_batch (model, graphs)) -> place_predict t model graphs ~batch:true
  | Request (P.Save requested) ->
      (* Primaries only — a replica writing the same per-shard file
         would race it. *)
      snapshot_fanout t "SAVE" requested
  | Request (P.Restore requested) ->
      (* Replicas restore the file their primary restores, so the whole
         shard group converges on the restored state. A bare RESTORE
         names the primary's own snapshot path: a replica's own file is
         the older state it booted from. *)
      List.iter
        (fun m ->
          if m.m_spec.Shard.sp_role <> Shard.Primary && is_up m then
            let primary = (List.hd t.groups.(m.m_spec.Shard.sp_shard).g_members).m_spec in
            let line =
              match (requested, primary.Shard.sp_snapshot) with
              | None, Some path -> "RESTORE " ^ quote_word path
              | _ -> snapshot_line "RESTORE" requested m
            in
            send_upstream t m line Discard)
        (all_members t);
      snapshot_fanout t "RESTORE" requested

let route t slot line = function
  | Local reply -> fill_slot t slot reply
  | Read g -> (
      match pick_read g with
      | Some m -> send_upstream t m line (To_slot slot)
      | None -> fill_slot t slot (shard_down_line g.g_shard))
  | Write g ->
      let primary = List.hd g.g_members in
      let mg = { mg_primary_ok = None; mg_deferred = [] } in
      List.iter (fun m -> if is_up m then send_upstream t m line (Mirror mg)) (List.tl g.g_members);
      send_upstream t primary line (Write_primary (slot, mg))
  | Fanout ([], _) -> fill_slot t slot no_shards_up
  | Fanout (targets, finish) ->
      (* Down members contribute a [None] part immediately. *)
      let part (m, _) = (m.m_spec.Shard.sp_shard, role_label m, None) in
      let agg =
        {
          a_slot = slot;
          a_parts = Array.of_list (List.map part targets);
          a_remaining = List.length targets;
          a_finish = finish;
        }
      in
      List.iteri
        (fun i (m, l) ->
          if is_up m then send_upstream t m l (Part (agg, i)) else complete_part t agg i None)
        targets
  | Ship_replica (primary, spec, snap) ->
      send_upstream t primary
        (Printf.sprintf "SAVE %s" (quote_word snap))
        (Replica_save (slot, spec))

let handle_client_line t c line =
  let command = parse_command line in
  let slot = new_slot c (command_label command) in
  route t slot line
    (match command with
    | Ok cmd -> place t c line cmd
    | Error msg -> Local (P.err_line (P.error ~code:"ERR_PARSE" msg)))

(* --- serving ------------------------------------------------------------- *)

(* Block until every member is up (or its boot deadline passed) before
   opening the front socket: a client that can connect should find the
   topology serving, not racing its own boot. *)
let wait_boot t =
  let rec loop () =
    List.iter (fun m -> try_connect t m) (all_members t);
    if List.exists (fun m -> match m.m_state with Connecting _ -> true | _ -> false) (all_members t)
    then begin
      Unix.sleepf 0.05;
      loop ()
    end
  in
  loop ()

(* SIGTERM every managed worker, give them a window to drain, then
   SIGKILL (and wait out) whatever is left. *)
let terminate_children t =
  List.iter
    (fun m ->
      Option.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) m.m_pid)
    (all_members t);
  let deadline = Clock.deadline_after 10.0 in
  reap t;
  while List.exists (fun m -> m.m_pid <> None) (all_members t) && not (Clock.expired deadline) do
    Unix.sleepf 0.05;
    reap t
  done;
  List.iter kill_and_reap (all_members t)

let serve t =
  Conn_loop.with_signals t.stop_flag @@ fun () ->
  List.iter (boot t) (all_members t);
  wait_boot t;
  let on_pass ~accepting =
    reap t;
    List.iter (fun m -> try_connect t m) (all_members t);
    (* Probing pauses during the drain so probe destinations can't keep
       it waiting. *)
    if accepting && t.config.probe_interval_s > 0.0 then probe t
  in
  Conn_loop.run ~role:"router" ~log:(log t "%s") ~metrics:t.metrics ~stop:t.stop_flag
    ~socket_path:t.config.socket_path ~tcp_port:t.config.tcp_port
    ~max_connections:t.config.max_connections ~max_line_bytes:t.config.max_line_bytes
    ~max_inbuf_bytes:t.config.max_inbuf_bytes
    {
      Conn_loop.init = Queue.create;
      on_lines = Array.iter (fun (c, line) -> handle_client_line t c line);
      owes = (fun c -> not (Queue.is_empty (Conn_loop.data c)));
      links = (fun () -> List.filter_map link_of (all_members t));
      on_pass;
      (* The drain waits for in-flight shard replies, then fails the
         stragglers. *)
      busy = (fun () -> List.exists (fun m -> not (Queue.is_empty m.m_pending)) (all_members t));
      drain_s = t.config.drain_timeout_s;
      abandon =
        (fun () ->
          List.iter
            (fun m ->
              Queue.iter (fun dest -> fail_dest t m.m_spec.Shard.sp_shard dest) m.m_pending;
              Queue.clear m.m_pending)
            (all_members t));
    };
  List.iter (fun m -> Option.iter Conn_loop.close_link (link_of m)) (all_members t);
  terminate_children t;
  let served = Metrics.requests t.metrics in
  Printf.eprintf "glqld-router: routed %d requests (%d errors), shutting down cleanly\n%!" served
    (Metrics.errors t.metrics);
  served
