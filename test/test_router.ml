(* Unit tests for the sharded-topology layer: shard placement and the
   router's pure reply merging (STATS aggregation, GRAPHS ordering,
   snapshot summaries). The socket loop itself is covered end-to-end by
   test_e2e_router and the fault harness. *)

open Helpers
module J = Glql_util.Json
module Shard = Glql_server.Shard
module Router = Glql_server.Router

let prop_placement_stable =
  qtest ~count:200 "placement stable and in range"
    QCheck.(pair (string_of_size (QCheck.Gen.return 8)) (int_range 1 16))
    (fun (name, shards) ->
      let s1 = Shard.id_of_name ~shards name in
      let s2 = Shard.id_of_name ~shards name in
      s1 = s2 && s1 >= 0 && s1 < shards)

let test_placement_canonical () =
  (* Alternate spellings of one spec-as-name co-locate: placement goes
     through Registry.canonical_spec. *)
  List.iter
    (fun shards ->
      check_int
        (Printf.sprintf "spec spellings co-locate @%d" shards)
        (Shard.id_of_name ~shards "sbm10+path3")
        (Shard.id_of_name ~shards "sbm10 + path3"))
    [ 1; 2; 3; 5; 8 ]

let test_paths () =
  let base_socket = "/tmp/r.sock" in
  let primary = List.nth (Shard.plan ~exe:"glqld" ~base_socket ~extra:[ "--timeout"; "5" ] ~shards:3) 2 in
  Alcotest.(check string) "worker socket" "/tmp/r.sock.shard2" primary.Shard.sp_socket;
  Alcotest.(check (option (array string)))
    "worker argv"
    (Some [| "glqld"; "--socket"; "/tmp/r.sock.shard2"; "--snapshot"; "/tmp/r.sock.shard2.glqs"; "--timeout"; "5" |])
    primary.Shard.sp_argv;
  let replica = Shard.replica_spec ~exe:"glqld" ~base_socket ~extra:[] ~shard:2 ~index:1 in
  Alcotest.(check string) "replica socket" "/tmp/r.sock.shard2r1" replica.Shard.sp_socket;
  Alcotest.(check (option string)) "snapshot" (Some "/tmp/r.sock.shard2r1.glqs") replica.Shard.sp_snapshot

(* A synthetic per-worker STATS payload shaped like Metrics.to_json. *)
let worker_stats ~requests ~errors ~graphs ~wl ~load =
  J.Obj
    [
      ("uptime_s", J.Float 1.5);
      ("requests", J.Int requests);
      ("errors", J.Int errors);
      ("bytes_in", J.Int (10 * requests));
      ("bytes_out", J.Int (20 * requests));
      ("latency_p50_ms", J.Float 0.25);
      ("by_command", J.Obj [ ("WL", J.Int wl); ("LOAD", J.Int load) ]);
      ("protocol_version", J.Int 4);
      ("graphs_registered", J.Int graphs);
    ]

let int_field j k =
  match J.int_member k j with Some i -> i | None -> Alcotest.failf "missing field %s" k

let test_merge_stats_sums () =
  let parts =
    [
      (0, "primary", Some (worker_stats ~requests:10 ~errors:1 ~graphs:2 ~wl:4 ~load:2));
      (1, "primary", Some (worker_stats ~requests:7 ~errors:0 ~graphs:1 ~wl:3 ~load:1));
      (2, "primary", None);
      (* Replica counters are reported but must not inflate the sums. *)
      (0, "replica1", Some (worker_stats ~requests:100 ~errors:9 ~graphs:2 ~wl:90 ~load:0));
    ]
  in
  let merged = Router.merge_stats ~router:(J.Obj [ ("role", J.Str "router") ]) ~shards:3 ~parts in
  (* Per-shard primary counters sum to the merged reply. *)
  check_int "requests sum" 17 (int_field merged "requests");
  check_int "errors sum" 1 (int_field merged "errors");
  check_int "bytes_in sum" 170 (int_field merged "bytes_in");
  check_int "graphs sum" 3 (int_field merged "graphs_registered");
  check_int "protocol_version consensus" 4 (int_field merged "protocol_version");
  check_int "shards" 3 (int_field merged "shards");
  (match J.member "by_command" merged with
  | Some bc ->
      check_int "by_command WL sum" 7 (int_field bc "WL");
      check_int "by_command LOAD sum" 3 (int_field bc "LOAD")
  | None -> Alcotest.fail "no by_command");
  (* Every member appears in the detail list, down ones included. *)
  (match J.member "members" merged with
  | Some (J.List members) ->
      check_int "member count" 4 (List.length members);
      let ups =
        List.filter (fun m -> J.member "up" m = Some (J.Bool true)) members
      in
      check_int "up members" 3 (List.length ups)
  | _ -> Alcotest.fail "no members list");
  (* Floats (uptime, percentiles) are per-member data, not summable. *)
  check_bool "no summed uptime" true (J.member "uptime_s" merged = None)

let test_merge_stats_all_down () =
  let merged =
    Router.merge_stats ~router:(J.Obj []) ~shards:2
      ~parts:[ (0, "primary", None); (1, "primary", None) ]
  in
  match J.member "members" merged with
  | Some (J.List members) -> check_int "members listed" 2 (List.length members)
  | _ -> Alcotest.fail "no members list"

let graphs_entry name nv ne =
  J.Obj [ ("name", J.Str name); ("vertices", J.Int nv); ("edges", J.Int ne) ]

let test_merge_graphs_sorted () =
  (* The merged rendering must be byte-identical to what one registry
     holding all the graphs would print: sorted by (name, nv, ne). *)
  let parts =
    [
      J.List [ graphs_entry "zeta" 5 4; graphs_entry "alpha" 3 2 ];
      J.List [ graphs_entry "mid" 7 6 ];
      J.List [];
    ]
  in
  let merged = Router.merge_graphs parts in
  let single =
    J.List [ graphs_entry "alpha" 3 2; graphs_entry "mid" 7 6; graphs_entry "zeta" 5 4 ]
  in
  Alcotest.(check string) "byte-identical to one registry" (J.to_string single) (J.to_string merged)

let test_merge_snapshots () =
  let part shard bytes graphs =
    ( shard,
      J.Obj
        [
          ("file", J.Str (Printf.sprintf "snap.shard%d" shard));
          ("bytes", J.Int bytes);
          ("graphs", J.Int graphs);
          ("colorings", J.Int 1);
          ("plans", J.Int 0);
        ] )
  in
  let merged = Router.merge_snapshots [ part 0 100 2; part 1 250 3 ] in
  check_int "bytes sum" 350 (int_field merged "bytes");
  check_int "graphs sum" 5 (int_field merged "graphs");
  check_int "colorings sum" 2 (int_field merged "colorings");
  match J.member "shards" merged with
  | Some (J.List entries) -> check_int "per-shard entries" 2 (List.length entries)
  | _ -> Alcotest.fail "no shards list"

let suite =
  ( "router",
    [
      prop_placement_stable;
      case "placement canonicalises specs" test_placement_canonical;
      case "topology path conventions" test_paths;
      case "stats merge sums primaries" test_merge_stats_sums;
      case "stats merge all down" test_merge_stats_all_down;
      case "graphs merge byte-identical" test_merge_graphs_sorted;
      case "snapshot merge sums" test_merge_snapshots;
    ] )
