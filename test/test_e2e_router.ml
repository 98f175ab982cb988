(* End-to-end test of the sharded topology, driven through real
   processes:

     test_e2e_router <glqld.exe> <glql_client.exe>

   Boots a single-process glqld (the reference) and a 3-shard
   `glqld --router` side by side, runs the full v4 command set against
   both through glql_client, and asserts the router's replies are
   byte-identical for every deterministic command. Then SIGKILLs one
   worker and asserts ERR_SHARD_DOWN is scoped to that shard's graphs
   while the others keep answering; spawns a snapshot-warmed replica and
   asserts it serves WL signatures identical to (and cache-warm from)
   its primary; and finally SIGTERMs the router and asserts the clean
   drain: exit 0, front socket unlinked, every worker terminated. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok - %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL - %s\n%!" name
  end

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let json_int_field text field =
  let tag = "\"" ^ field ^ "\":" in
  let tl = String.length tag and n = String.length text in
  let rec find i =
    if i + tl > n then None else if String.sub text i tl = tag then Some (i + tl) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < n && (text.[!stop] = '-' || (text.[!stop] >= '0' && text.[!stop] <= '9')) do
        incr stop
      done;
      int_of_string_opt (String.sub text start (!stop - start))

(* The pid of shard [shard]'s primary in a TOPOLOGY reply: member
   objects print shard, role, socket, pid in that order. *)
let primary_pid topology shard =
  let tag = Printf.sprintf "\"shard\":%d,\"role\":\"primary\"" shard in
  let tl = String.length tag and n = String.length topology in
  let rec find i =
    if i + tl > n then None
    else if String.sub topology i tl = tag then Some (i + tl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some after -> json_int_field (String.sub topology after (n - after)) "pid"

let signature_of reply =
  let key = "\"signature\":\"" in
  let kl = String.length key and n = String.length reply in
  let rec find i =
    if i + kl > n then ""
    else if String.sub reply i kl = key then (
      match String.index_from_opt reply (i + kl) '"' with
      | Some stop -> String.sub reply (i + kl) (stop - i - kl)
      | None -> "")
    else find (i + 1)
  in
  find 0

let spawn exe args ~stdout_file =
  let out_fd = Unix.openfile stdout_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Some code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> None

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let () =
  let glqld, client =
    match Sys.argv with
    | [| _; d; c |] -> (d, c)
    | _ ->
        prerr_endline "usage: test_e2e_router <glqld.exe> <glql_client.exe>";
        exit 2
  in
  let dir = Filename.temp_file "glqld_e2e_router" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let single_sock = Filename.concat dir "single.sock" in
  let router_sock = Filename.concat dir "router.sock" in
  let counter = ref 0 in
  let out () =
    incr counter;
    Filename.concat dir (Printf.sprintf "out%d.txt" !counter)
  in
  let wait_for path =
    let deadline = Unix.gettimeofday () +. 20.0 in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.05)
    done
  in

  (* Both sides run the RETRAIN-on-stale policy at the same cadence, so
     refreshed models stay byte-identical between the fleet and the
     reference daemon (the refit is deterministic from the stored spec). *)
  let single =
    spawn glqld
      [ "--socket"; single_sock; "--retrain-stale"; "0.4" ]
      ~stdout_file:(Filename.concat dir "single.out")
  in
  let router =
    spawn glqld
      (* Short probe interval so the health-probe counters observably
         tick within the lifetime of this test. *)
      [
        "--router"; "--workers"; "3"; "--socket"; router_sock; "--probe-interval"; "0.2";
        "--retrain-stale"; "0.4";
      ]
      ~stdout_file:(Filename.concat dir "router.out")
  in
  wait_for single_sock;
  wait_for router_sock;
  check "single daemon socket appears" (Sys.file_exists single_sock);
  check "router front socket appears" (Sys.file_exists router_sock);

  let run sock args =
    let f = out () in
    let pid = spawn client ([ "--socket"; sock ] @ args) ~stdout_file:f in
    let code = wait_exit pid in
    (code, String.trim (read_file f))
  in

  (* The full v4 command set, replies byte-identical to one process.
     EXPLAIN and STATS carry timings and so are compared structurally
     below; everything else must match to the byte. *)
  let gel = "agg_sum{x2}([1] | E(x1,x2))" in
  (* "a" loads first, and the graph mutated below lives on another
     shard than "a": a process-wide generation counter would number that
     graph differently in the fleet and in the single daemon, which the
     MUTATE, TRAIN and MODELS byte-identity checks below would catch. *)
  let deterministic =
    [
      [ "PING" ];
      [ "LOAD"; "a"; "petersen" ];
      [ "LOAD"; "b"; "grid5x5" ];
      [ "LOAD"; "c"; "cycle12" ];
      [ "LOAD"; "d"; "path30" ];
      [ "QUERY"; "a"; gel ];
      [ "QUERY"; "a"; gel ];
      (* second run: plan-cache hit on both sides *)
      [ "WL"; "b" ];
      [ "KWL"; "a"; "2" ];
      [ "HOM"; "c"; "5" ];
      [ "WL"; "cycle6+cycle3" ];
      (* spec-as-name routing *)
      [ "GRAPHS" ];
      [ "GENERATORS" ];
      [ "VERSION" ];
    ]
  in
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let code_s, reply_s = run single_sock args in
      let code_r, reply_r = run router_sock args in
      check (Printf.sprintf "[%s] exit codes agree" label) (code_s = Some 0 && code_r = code_s);
      check (Printf.sprintf "[%s] byte-identical reply" label)
        (reply_s = reply_r && String.length reply_r > 0))
    deterministic;

  (* Metrics labels through the router: lines that fail to parse all
     count under one INVALID key, as on the single daemon, so N distinct
     unknown command words cannot grow the router's by_command table. *)
  let n_unknown = 40 in
  let router_section () =
    let _, stats = run router_sock [ "STATS" ] in
    let tag = "\"router\":{" in
    let tl = String.length tag and n = String.length stats in
    let rec find i =
      if i + tl > n then "" else if String.sub stats i tl = tag then String.sub stats i (n - i)
      else find (i + 1)
    in
    find 0
  in
  let invalid_before = Option.value ~default:0 (json_int_field (router_section ()) "INVALID") in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX router_sock);
  let burst = String.concat "" (List.init n_unknown (fun i -> Printf.sprintf "W%d x\n" i)) in
  ignore (Unix.write_substring fd burst 0 (String.length burst));
  let ic = Unix.in_channel_of_descr fd in
  let replies = List.init n_unknown (fun _ -> input_line ic) in
  close_in ic;
  check "unknown command words are answered with ERR_PARSE"
    (List.for_all (contains ~needle:"ERR_PARSE") replies);
  let section = router_section () in
  check
    (Printf.sprintf "%d unknown words count as one INVALID key" n_unknown)
    (json_int_field section "INVALID" = Some (invalid_before + n_unknown));
  check "unknown words get no by_command key of their own"
    (not (contains ~needle:"\"W0\":" section || contains ~needle:"\"W39\":" section));

  (* EXPLAIN: timings differ between processes, shape must not. *)
  let _, explain = run router_sock [ "EXPLAIN"; "a"; gel ] in
  check "EXPLAIN through the router is ok" (contains ~needle:"OK {" explain);
  check "EXPLAIN reports stages through the router"
    (contains ~needle:"\"stage\":\"execute\"" explain);

  (* STATS: merged across shards, with the per-shard counters summing to
     the top-level mirror (4 graphs live in the fleet). *)
  let _, stats = run router_sock [ "STATS" ] in
  check "STATS through the router is ok" (contains ~needle:"OK {" stats);
  check "STATS counts the fleet's graphs"
    (json_int_field stats "graphs_registered" = Some 5);
  check "STATS carries per-member detail" (contains ~needle:"\"members\":[" stats);
  check "STATS carries the router section" (contains ~needle:"\"role\":\"router\"" stats);
  (* Heap gauges: the workers' sum at the top level, the router's own in
     its section. *)
  let router_section =
    let tag = "\"router\":{" in
    let tl = String.length tag and n = String.length stats in
    let rec find i =
      if i + tl > n then "" else if String.sub stats i tl = tag then String.sub stats i (n - i)
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun field ->
      check
        (Printf.sprintf "STATS sums the workers' %s" field)
        (json_int_field stats field <> None);
      check
        (Printf.sprintf "STATS reports the router's own %s" field)
        (json_int_field router_section field <> None))
    [ "gc_heap_words"; "gc_top_heap_words"; "gc_minor_collections"; "gc_major_collections" ];
  check "the workers' heap is not empty"
    (match json_int_field stats "gc_heap_words" with Some v -> v > 0 | None -> false);

  (* Placement: find the victim (shard of "a") and a survivor graph on a
     different shard. ROUTE is the router's own placement oracle. *)
  let _, route_a = run router_sock [ "ROUTE"; "a" ] in
  let shard_a = match json_int_field route_a "shard" with Some s -> s | None -> -1 in
  check "ROUTE names a's shard" (shard_a >= 0);
  let survivor =
    List.find_opt
      (fun g ->
        let _, r = run router_sock [ "ROUTE"; g ] in
        json_int_field r "shard" <> Some shard_a)
      [ "b"; "c"; "d" ]
  in
  check "some graph lives on another shard" (survivor <> None);
  let survivor = match survivor with Some g -> g | None -> "b" in
  let _, route_s = run router_sock [ "ROUTE"; survivor ] in
  let shard_s = match json_int_field route_s "shard" with Some s -> s | None -> -1 in

  (* Warm the survivor's colouring so the replica snapshot ships it. *)
  let _, wl_before = run router_sock [ "WL"; survivor ] in
  check "survivor WL ok before the kill" (signature_of wl_before <> "");

  (* SIGKILL the victim's worker: its graphs fail with ERR_SHARD_DOWN,
     every other shard keeps answering. *)
  let _, topology = run router_sock [ "TOPOLOGY" ] in
  let victim_pid = primary_pid topology shard_a in
  check "TOPOLOGY names the victim pid" (victim_pid <> None);
  (match victim_pid with Some pid -> Unix.kill pid Sys.sigkill | None -> ());
  ignore (Unix.select [] [] [] 0.6);
  let code_dead, dead_reply = run router_sock [ "WL"; "a" ] in
  check "dead shard's graph exits 1" (code_dead = Some 1);
  check "dead shard's graph fails with ERR_SHARD_DOWN"
    (contains ~needle:"ERR_SHARD_DOWN" dead_reply);
  let code_live, live_reply = run router_sock [ "WL"; survivor ] in
  check "other shards keep answering" (code_live = Some 0);
  check "surviving WL signature unchanged" (signature_of live_reply = signature_of wl_before);
  let code_graphs, graphs_degraded = run router_sock [ "GRAPHS" ] in
  check "GRAPHS still answers degraded"
    (code_graphs = Some 0 && contains ~needle:(Printf.sprintf "\"name\":\"%s\"" survivor) graphs_degraded);

  (* Replica fan-out: REPLICA ships a snapshot from the survivor's
     primary and boots a warm worker. Both round-robin targets must then
     serve the identical WL signature — and both from their colouring
     caches, proving the replica really booted from the shipped
     snapshot rather than recomputing. *)
  let code_rep, rep_reply = run router_sock [ "REPLICA"; string_of_int shard_s ] in
  check "REPLICA replies ok" (code_rep = Some 0 && contains ~needle:"\"role\":\"replica1\"" rep_reply);
  let _, wl_1 = run router_sock [ "WL"; survivor ] in
  let _, wl_2 = run router_sock [ "WL"; survivor ] in
  check "replica serves the primary's WL signature"
    (signature_of wl_1 = signature_of wl_before && signature_of wl_2 = signature_of wl_before);
  check "both round-robin targets answer from warm colouring caches"
    (contains ~needle:"\"coloring_cache\":\"hit\"" wl_1
    && contains ~needle:"\"coloring_cache\":\"hit\"" wl_2);

  (* MUTATE through the router: routed to the survivor's primary and
     mirrored to its replica, so the stale colouring is invalidated on
     BOTH round-robin targets — the next two WLs (one per target) must
     recompute and agree on the new signature, and the pair after that
     come back warm. The WL replies themselves are v4 read-path bytes:
     they must stay identical to a single-process daemon applying the
     same mutation. *)
  let code_mut, mut_reply = run router_sock [ "MUTATE"; survivor; "ADD_EDGES"; "0"; "2" ] in
  check "MUTATE through the router exits 0" (code_mut = Some 0);
  check "MUTATE reply reports the applied batch"
    (contains ~needle:"\"applied\":{\"add_edges\":1,\"del_edges\":0,\"set_labels\":0}" mut_reply
    && json_int_field mut_reply "generation" <> None);
  let _, wl_m1 = run router_sock [ "WL"; survivor ] in
  let _, wl_m2 = run router_sock [ "WL"; survivor ] in
  check "both targets recompute after the mutation"
    (contains ~needle:"\"coloring_cache\":\"miss\"" wl_m1
    && contains ~needle:"\"coloring_cache\":\"miss\"" wl_m2);
  check "both targets agree on the post-mutate signature"
    (signature_of wl_m1 <> ""
    && signature_of wl_m1 = signature_of wl_m2
    && signature_of wl_m1 <> signature_of wl_before);
  let _, wl_m3 = run router_sock [ "WL"; survivor ] in
  let _, wl_m4 = run router_sock [ "WL"; survivor ] in
  check "both targets warm again on the new generation"
    (contains ~needle:"\"coloring_cache\":\"hit\"" wl_m3
    && contains ~needle:"\"coloring_cache\":\"hit\"" wl_m4);
  let _, single_mut = run single_sock [ "MUTATE"; survivor; "ADD_EDGES"; "0"; "2" ] in
  check "MUTATE byte-identical single vs router" (single_mut = mut_reply);
  let _, wl_single = run single_sock [ "WL"; survivor ] in
  check "post-mutate WL byte-identical single vs router"
    (wl_single = wl_m1 && String.length wl_single > 0);

  (* Model serving through the router (protocol v6): TRAIN routes to
     the survivor's primary and mirrors to its replica, PREDICT
     round-robins across both — and TRAIN, PREDICT and MODELS must all
     answer byte-identically to a single daemon fitting the same spec on
     the same mutated graph, generations included. The recipe avoids
     wl: its widths survive the chord added above. *)
  let train_args =
    [ "--train"; "m"; "ON"; survivor; "WITH"; "deg;hom3;label"; "TARGET"; gel; "EPOCHS"; "10" ]
  in
  let code_tr, tr_router = run router_sock train_args in
  let code_ts, tr_single = run single_sock train_args in
  check "TRAIN through the router exits 0"
    (code_tr = Some 0 && contains ~needle:"\"loss_final\"" tr_router);
  check "TRAIN on the single daemon exits 0" (code_ts = Some 0);
  check "TRAIN byte-identical single vs router" (tr_single = tr_router);
  let predict_args = [ "--predict"; "m"; survivor; "0"; "1"; "2" ] in
  let _, pr_1 = run router_sock predict_args in
  let _, pr_2 = run router_sock predict_args in
  let _, pr_single = run single_sock predict_args in
  check "both PREDICT round-robin targets byte-identical to a single daemon"
    (pr_1 = pr_single && pr_2 = pr_single && String.length pr_single > 0);
  check "routed PREDICT is non-stale" (contains ~needle:"\"stale\":false" pr_1);
  let code_mo, models_reply = run router_sock [ "MODELS" ] in
  check "MODELS fan-out lists the trained model"
    (code_mo = Some 0 && contains ~needle:"\"name\":\"m\"" models_reply);
  let _, models_single = run single_sock [ "MODELS" ] in
  check "MODELS byte-identical single vs router" (models_single = models_reply);
  (* Batched PREDICT: the router splits the graph list across the
     group's live members (primary + replica here) and re-concatenates
     the per-member "batch" arrays — the merged reply must be
     byte-identical to the single daemon serving the whole batch in one
     process, and atomic on a failing graph. *)
  let batch_args = [ "--predict"; "m"; "ON"; survivor ^ "," ^ survivor ] in
  let code_b, batch_router = run router_sock batch_args in
  let _, batch_single = run single_sock batch_args in
  check "batched PREDICT through the router exits 0"
    (code_b = Some 0 && contains ~needle:"\"graphs\":2" batch_router);
  check "batched PREDICT byte-identical single vs router"
    (batch_router = batch_single && String.length batch_single > 0);
  let code_bx, batch_cross = run router_sock [ "--predict"; "m"; "ON"; survivor ^ ",a" ] in
  check "mixed-shard batch rejected with the co-hash constraint"
    (code_bx = Some 1
    && contains ~needle:"ERR_BAD_ARG" batch_cross
    && contains ~needle:"one" batch_cross);

  (* RETRAIN-on-stale: mutate the model's source on both sides, then
     wait for the idle loops (every 0.4s) to refit off the request
     path. Every group member refits the same deterministic spec, so
     once refreshed both round-robin targets must answer stale:false
     byte-identically to the refreshed single daemon. *)
  let _, mut_r = run router_sock [ "MUTATE"; survivor; "ADD_EDGES"; "1"; "3" ] in
  let _, mut_s = run single_sock [ "MUTATE"; survivor; "ADD_EDGES"; "1"; "3" ] in
  check "staleness MUTATE applied on both sides"
    (contains ~needle:"\"add_edges\":1" mut_r && contains ~needle:"\"add_edges\":1" mut_s);
  let fresh reply = contains ~needle:"\"stale\":false" reply && contains ~needle:"OK {" reply in
  let rec await_retrain tries =
    let _, p1 = run router_sock predict_args in
    let _, p2 = run router_sock predict_args in
    let _, ps = run single_sock predict_args in
    if fresh p1 && fresh p2 && fresh ps then Some (p1, p2, ps)
    else if tries = 0 then None
    else begin
      ignore (Unix.select [] [] [] 0.4);
      await_retrain (tries - 1)
    end
  in
  (match await_retrain 50 with
  | None -> check "retrain-stale refreshes PREDICT to stale:false" false
  | Some (p1, p2, ps) ->
      check "retrain-stale refreshes PREDICT to stale:false" true;
      check "refreshed PREDICT byte-identical across targets and daemons"
        (p1 = ps && p2 = ps && String.length ps > 0));
  let _, stats_single = run single_sock [ "STATS" ] in
  check "single daemon counts its stale refits"
    (match json_int_field stats_single "retrains_stale" with Some n -> n >= 1 | None -> false);
  (* Cross-shard PREDICT: the model lives on the survivor's shard, but
     graph "a" hashes elsewhere. The router keeps no table of where
     models live: PREDICT routes by its graph like any other read, so
     the reply is whatever a's shard answers. Its primary is dead, so
     that is the same scoped ERR_SHARD_DOWN line WL a got above. *)
  let code_x, pr_cross = run router_sock [ "--predict"; "m"; "a" ] in
  check "cross-shard PREDICT gets the reply of its graph's shard"
    (code_x = Some 1 && contains ~needle:"ERR_SHARD_DOWN" pr_cross && pr_cross = dead_reply);

  (* Collect the surviving pids, then SIGTERM the router: clean exit,
     front socket unlinked, every child worker reaped. By now several
     0.2s probe intervals have elapsed, so TOPOLOGY must surface live
     health-probe counters for the up members. *)
  let _, topology2 = run router_sock [ "TOPOLOGY" ] in
  check "TOPOLOGY surfaces health-probe counters"
    (contains ~needle:"\"probes_sent\":" topology2 && contains ~needle:"\"pongs\":" topology2);
  let some_member_ponged =
    (* At least one "pongs":N field with N >= 1 somewhere in the reply. *)
    let tag = "\"pongs\":" in
    let tl = String.length tag and n = String.length topology2 in
    let rec scan i =
      if i + tl >= n then false
      else if String.sub topology2 i tl = tag then
        let c = topology2.[i + tl] in
        if c >= '1' && c <= '9' then true else scan (i + 1)
      else scan (i + 1)
    in
    scan 0
  in
  check "some member has answered a probe" some_member_ponged;
  let worker_pids =
    List.filter_map
      (fun shard -> primary_pid topology2 shard)
      [ 0; 1; 2 ]
  in
  Unix.kill router Sys.sigterm;
  let router_code = wait_exit router in
  check "router SIGTERM exits cleanly" (router_code = Some 0);
  check "front socket unlinked" (not (Sys.file_exists router_sock));
  ignore (Unix.select [] [] [] 0.2);
  check "all workers terminated" (List.for_all (fun pid -> not (alive pid)) worker_pids);

  Unix.kill single Sys.sigterm;
  check "reference daemon exits cleanly" (wait_exit single = Some 0);

  (* A bare RESTORE through the router: the replica must restore the
     file its primary restores, not the older snapshot it booted from,
     or round-robin reads alternate between two graphs. *)
  let router1_sock = Filename.concat dir "router1.sock" in
  let router1 =
    spawn glqld
      [ "--router"; "--workers"; "1"; "--socket"; router1_sock ]
      ~stdout_file:(Filename.concat dir "router1.out")
  in
  wait_for router1_sock;
  let code_rep1, _ = run router1_sock [ "REPLICA"; "0" ] in
  check "one-shard REPLICA replies ok" (code_rep1 = Some 0);
  List.iter
    (fun args ->
      let code, _ = run router1_sock args in
      check (String.concat " " args ^ " through the one-shard router") (code = Some 0))
    [ [ "LOAD"; "g"; "cycle5" ]; [ "SAVE" ]; [ "LOAD"; "g"; "path3" ]; [ "RESTORE" ] ];
  let degrees = List.init 4 (fun _ -> snd (run router1_sock [ "QUERY"; "g"; gel ])) in
  check "every read after a bare RESTORE answers the restored graph"
    (List.for_all (contains ~needle:"[[2],[2],[2],[2],[2]]") degrees);
  Unix.kill router1 Sys.sigterm;
  check "one-shard router exits cleanly" (wait_exit router1 = Some 0);

  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.printf "%d router end-to-end check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "all router end-to-end checks passed"
