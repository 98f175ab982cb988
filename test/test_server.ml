(* Tests for the glqld server stack: canonical plan-cache keys, the wire
   protocol parser (including malformed input), the graph registry, and
   the full request pipeline via Server.handle_line. *)

open Helpers
module P = Glql_server.Protocol
module Registry = Glql_server.Registry
module Cache = Glql_server.Cache
module Featurize = Glql_server.Featurize
module Server = Glql_server.Server
module Parser = Glql_gel.Parser
module Expr = Glql_gel.Expr
module Normal_form = Glql_gel.Normal_form
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Cr = Glql_wl.Color_refinement

let key src = Normal_form.cache_key (Parser.parse src)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- cache keys ---------------------------------------------------------- *)

let test_key_alpha_equivalent () =
  Alcotest.(check string)
    "renamed binder" (key "agg_sum{x2}([1] | E(x1,x2))")
    (key "agg_sum{x9}([1] | E(x1,x9))");
  Alcotest.(check string)
    "nested binders renamed"
    (key "agg_sum{x2}(agg_count{x3}([1] | E(x2,x3)) | E(x1,x2))")
    (key "agg_sum{x5}(agg_count{x4}([1] | E(x5,x4)) | E(x1,x5))")

let test_key_free_var_renaming () =
  (* Renaming free variables while preserving their order is invisible. *)
  Alcotest.(check string)
    "free var renamed" (key "agg_sum{x2}([1] | E(x1,x2))")
    (key "agg_sum{x2}([1] | E(x7,x2))")

let test_key_symmetric_edge () =
  Alcotest.(check string)
    "edge arg order" (key "agg_sum{x2}([1] | E(x1,x2))")
    (key "agg_sum{x2}([1] | E(x2,x1))")

let test_key_binder_reordering () =
  Alcotest.(check string)
    "binder list order"
    (key "agg_sum{x2,x3}([1] | product(E(x1,x2), E(x2,x3)))")
    (key "agg_sum{x3,x2}([1] | product(E(x1,x3), E(x3,x2)))")

let test_key_distinct_queries () =
  let keys =
    List.map key
      [
        "agg_sum{x2}([1] | E(x1,x2))";
        "agg_max{x2}([1] | E(x1,x2))";
        "agg_sum{x2}([2] | E(x1,x2))";
        "agg_sum{x2}(agg_count{x3}([1] | E(x2,x3)) | E(x1,x2))";
        "agg_sum{x1,x2}([1] | E(x1,x2))";
      ]
  in
  check_int "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* --- protocol ------------------------------------------------------------ *)

let test_tokenize () =
  (match P.tokenize "QUERY g 'a b' tail" with
  | Ok toks -> Alcotest.(check (list string)) "quoted token" [ "QUERY"; "g"; "a b"; "tail" ] toks
  | Error e -> Alcotest.failf "tokenize failed: %s" e);
  (match P.tokenize "say \"it's fine\"" with
  | Ok toks -> Alcotest.(check (list string)) "double quotes" [ "say"; "it's fine" ] toks
  | Error e -> Alcotest.failf "tokenize failed: %s" e);
  check_bool "unbalanced quote rejected" true
    (match P.tokenize "QUERY g 'unclosed" with Error _ -> true | Ok _ -> false)

let plain req = Ok { P.req; traced = false }

let test_parse_request_ok () =
  check_bool "ping case-insensitive" true (P.parse_request "ping" = plain P.Ping);
  check_bool "query parsed" true
    (P.parse_request "QUERY g 'agg_sum{x2}([1] | E(x1,x2))'"
    = plain (P.Query ("g", "agg_sum{x2}([1] | E(x1,x2))")));
  check_bool "load parsed" true
    (P.parse_request "LOAD g cycle3+cycle3" = plain (P.Load ("g", "cycle3+cycle3")));
  check_bool "wl default rounds" true (P.parse_request "WL g" = plain (P.Wl ("g", None)));
  check_bool "wl explicit rounds" true (P.parse_request "wl g 2" = plain (P.Wl ("g", Some 2)));
  check_bool "explain parsed" true
    (P.parse_request "EXPLAIN g 'agg_sum{x2}([1] | E(x1,x2))'"
    = plain (P.Explain ("g", "agg_sum{x2}([1] | E(x1,x2))")));
  check_bool "version parsed" true (P.parse_request "VERSION" = plain P.Version)

let test_parse_request_trace_option () =
  (* A trailing bare TRACE is an option on any command, case-insensitive. *)
  check_bool "ping trace" true (P.parse_request "PING TRACE" = Ok { P.req = P.Ping; traced = true });
  check_bool "query trace" true
    (P.parse_request "QUERY g 'agg_sum{x2}([1] | E(x1,x2))' trace"
    = Ok { P.req = P.Query ("g", "agg_sum{x2}([1] | E(x1,x2))"); traced = true });
  check_bool "wl trace keeps rounds" true
    (P.parse_request "WL g 2 TRACE" = Ok { P.req = P.Wl ("g", Some 2); traced = true });
  (* A quoted 'TRACE' argument in last position is still consumed as the
     option (tokens do not remember their quoting); a graph named TRACE
     must therefore not rely on trailing position. *)
  check_bool "trace alone is not a command" true
    (match P.parse_request "TRACE" with Error _ -> true | Ok _ -> false)

let test_parse_mutate () =
  check_bool "single add" true
    (P.parse_request "MUTATE g ADD_EDGES 0 1" = plain (P.Mutate ("g", [ P.M_add_edge (0, 1) ])));
  (* Sections mix, repeat, and are case-insensitive; SET_LABEL consumes
     floats up to the next keyword. *)
  check_bool "mixed batch" true
    (P.parse_request "MUTATE g ADD_EDGES 0 1 2 3 DEL_EDGES 1 2 SET_LABEL 4 0.5 1.5 add_edges 3 4"
    = plain
        (P.Mutate
           ( "g",
             [
               P.M_add_edge (0, 1);
               P.M_add_edge (2, 3);
               P.M_del_edge (1, 2);
               P.M_set_label (4, [| 0.5; 1.5 |]);
               P.M_add_edge (3, 4);
             ] )));
  check_bool "traced mutate" true
    (P.parse_request "MUTATE g DEL_EDGES 0 1 TRACE"
    = Ok { P.req = P.Mutate ("g", [ P.M_del_edge (0, 1) ]); traced = true });
  List.iter
    (fun line ->
      check_bool (Printf.sprintf "rejects %S" line) true
        (match P.parse_request line with Error _ -> true | Ok _ -> false))
    [
      "MUTATE";
      "MUTATE g";
      "MUTATE g ADD_EDGES";
      "MUTATE g ADD_EDGES 0";
      "MUTATE g ADD_EDGES 0 x";
      "MUTATE g SET_LABEL 3";
      "MUTATE g SET_LABEL nope 1.0";
      "MUTATE g 0 1";
    ]

let test_parse_request_malformed () =
  let malformed =
    [
      "";
      "   ";
      "FROBNICATE x";
      "LOAD missing-spec";
      "QUERY g";
      "QUERY g 'unclosed";
      "WL g notanumber";
      "KWL g";
      "HOM g too many args here";
      "PING extra";
    ]
  in
  List.iter
    (fun line ->
      check_bool (Printf.sprintf "rejects %S" line) true
        (match P.parse_request line with Error _ -> true | Ok _ -> false))
    malformed

let test_json_rendering () =
  Alcotest.(check string) "escaping" "\"a\\\"b\\n\"" (P.json_to_string (P.Str "a\"b\n"));
  Alcotest.(check string)
    "object" "{\"a\":1,\"b\":[true,null]}"
    (P.json_to_string (P.Obj [ ("a", P.Int 1); ("b", P.List [ P.Bool true; P.Null ]) ]));
  Alcotest.(check string) "integer float" "3" (P.json_to_string (P.Float 3.0));
  (* Non-finite floats have no JSON token: all of nan, +inf, -inf must
     render as null, never as the invalid literals "inf"/"-inf". *)
  Alcotest.(check string) "nan" "null" (P.json_to_string (P.Float Float.nan));
  Alcotest.(check string) "+inf" "null" (P.json_to_string (P.Float Float.infinity));
  Alcotest.(check string) "-inf" "null" (P.json_to_string (P.Float Float.neg_infinity));
  Alcotest.(check string)
    "inf inside a list" "[1,null,2]"
    (P.json_to_string (P.List [ P.Float 1.0; P.Float Float.infinity; P.Float 2.0 ]));
  check_bool "ok tagged" true (P.is_ok (P.ok P.Null))

(* --- registry ------------------------------------------------------------ *)

let check_spec spec nv ne =
  match Registry.graph_of_spec spec with
  | Ok g ->
      check_int (spec ^ " vertices") nv (Graph.n_vertices g);
      check_int (spec ^ " edges") ne (Graph.n_edges g)
  | Error e -> Alcotest.failf "spec %s rejected: %s" spec e

let test_registry_specs () =
  check_spec "petersen" 10 15;
  check_spec "cycle5" 5 5;
  check_spec "path4" 4 3;
  check_spec "complete4" 4 6;
  check_spec "grid2x3" 6 7;
  check_spec "cycle3+cycle3" 6 6;
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "rejects %S" bad) true
        (match Registry.graph_of_spec bad with Error _ -> true | Ok _ -> false))
    [ "nosuchgraph"; "cycle"; "cycle3+"; "gridx3"; "" ]

let test_registry_find_caches () =
  let r = Registry.create () in
  check_int "starts empty" 0 (Registry.n_graphs r);
  (match Registry.find r "cycle4" with
  | Ok g -> check_int "spec fallback" 4 (Graph.n_vertices g)
  | Error e -> Alcotest.failf "find failed: %s" e);
  check_int "fallback cached" 1 (Registry.n_graphs r);
  (match Registry.register r ~name:"two" ~spec:"cycle3+cycle3" with
  | Ok g -> check_int "registered union" 6 (Graph.n_vertices g)
  | Error e -> Alcotest.failf "register failed: %s" e);
  check_bool "listed" true
    (List.exists (fun (name, nv, ne) -> name = "two" && nv = 6 && ne = 6) (Registry.list r));
  check_bool "unknown spec reported" true
    (match Registry.find r "definitely-not-a-graph" with Error _ -> true | Ok _ -> false)

let test_registry_spec_limits () =
  (* Oversized specs are rejected before any construction happens. *)
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "rejects oversized %S" bad) true
        (match Registry.graph_of_spec bad with Error _ -> true | Ok _ -> false))
    [
      "complete20000" (* ~2e8 edges *);
      "grid1000x1000" (* 1e6 vertices *);
      "cycle200001";
      "star4611686018427387902" (* n+1 wraps negative *);
      "cycle50000+cycle60000" (* union over the vertex cap *);
    ];
  check_bool "large-but-bounded spec accepted" true
    (match Registry.graph_of_spec "cycle50000" with Ok _ -> true | Error _ -> false);
  check_bool "custom limit enforced" true
    (match Registry.graph_of_spec ~max_vertices:10 "cycle11" with Error _ -> true | Ok _ -> false);
  check_bool "custom limit boundary accepted" true
    (match Registry.graph_of_spec ~max_vertices:10 "cycle10" with Ok _ -> true | Error _ -> false)

let test_registry_generations () =
  let r = Registry.create () in
  let gen name =
    match Registry.find_entry r name with
    | Ok (_, gen) -> gen
    | Error e -> Alcotest.failf "find_entry %s failed: %s" name e
  in
  ignore (Registry.register r ~name:"g" ~spec:"cycle5");
  let g0 = gen "g" in
  check_int "stable across lookups" g0 (gen "g");
  ignore (Registry.register r ~name:"g" ~spec:"petersen");
  check_bool "re-register bumps the generation" true (gen "g" > g0);
  (* The spec fallback also gets a generation a later LOAD supersedes. *)
  let f0 = gen "cycle4" in
  ignore (Registry.register r ~name:"cycle4" ~spec:"petersen");
  check_bool "shadowing a spec name bumps the generation" true (gen "cycle4" > f0)

let test_registry_mutate () =
  let r = Registry.create () in
  ignore (Registry.register r ~name:"g" ~spec:"cycle5");
  let entry () =
    match Registry.find_entry r "g" with
    | Ok (g, gen) -> (g, gen)
    | Error e -> Alcotest.failf "find_entry failed: %s" e
  in
  let _, gen0 = entry () in
  (* One batch exercising every op kind, every rejection reason, and the
     sequential (evolving-state) semantics. *)
  let outcome =
    match
      Registry.mutate r ~name:"g"
        [
          Registry.Add_edge (0, 2) (* new chord: applied *);
          Registry.Add_edge (2, 0) (* same edge, swapped: duplicate *);
          Registry.Del_edge (1, 2) (* present: applied *);
          Registry.Add_edge (1, 2) (* re-add after in-batch delete: applied *);
          Registry.Del_edge (1, 3) (* absent: rejected *);
          Registry.Add_edge (0, 0) (* self-loop: rejected *);
          Registry.Add_edge (0, 9) (* out of range: rejected *);
          Registry.Set_label (2, [| 7.0 |]) (* generator labels are 1-dim: applied *);
          Registry.Set_label (2, [| 1.0; 2.0 |]) (* wrong dimension: rejected *);
        ]
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "mutate failed: %s" e
  in
  check_int "applied adds" 2 outcome.Registry.m_added;
  check_int "applied dels" 1 outcome.Registry.m_deleted;
  check_int "applied labels" 1 outcome.Registry.m_relabeled;
  check_int "rejections" 5 (List.length outcome.Registry.m_rejected);
  List.iter
    (fun (rej : Registry.rejected) ->
      Alcotest.(check string)
        (Printf.sprintf "rejection %d code" rej.Registry.r_index)
        "ERR_BAD_ARG" rej.Registry.r_code)
    outcome.Registry.m_rejected;
  Alcotest.(check (list int))
    "rejection indices" [ 1; 4; 5; 6; 8 ]
    (List.map (fun (rej : Registry.rejected) -> rej.Registry.r_index) outcome.Registry.m_rejected);
  (* Net effect: the (1,2) delete/re-add cancels, so only the (0,2) chord
     lands; the frontier reports exactly the changed rows. *)
  check_int "net edges" 6 (Graph.n_edges outcome.Registry.m_graph);
  check_bool "chord present" true (Graph.has_edge outcome.Registry.m_graph 0 2);
  check_bool "cycle edge survived" true (Graph.has_edge outcome.Registry.m_graph 1 2);
  Alcotest.(check (list int)) "touched adjacency rows" [ 0; 2 ] outcome.Registry.m_touched_adj;
  Alcotest.(check (list int)) "touched labels" [ 2 ] outcome.Registry.m_touched_lab;
  check_bool "generation advanced in place" true (outcome.Registry.m_gen > gen0);
  let g_now, gen_now = entry () in
  check_int "binding advanced" outcome.Registry.m_gen gen_now;
  check_int "binding holds the mutated graph" 6 (Graph.n_edges g_now);
  check_int "still one binding" 1 (Registry.n_graphs r);
  (* An all-rejected batch leaves the binding (and generation) alone. *)
  (match Registry.mutate r ~name:"g" [ Registry.Add_edge (0, 0) ] with
  | Ok o ->
      check_int "no-op keeps the generation" gen_now o.Registry.m_gen;
      check_int "no-op rejected op reported" 1 (List.length o.Registry.m_rejected)
  | Error e -> Alcotest.failf "all-rejected mutate errored: %s" e);
  (* MUTATE never builds specs; but a spec-fallback binding is mutable
     under any spelling of its canonical spec. *)
  check_bool "unknown graph is an error" true
    (match Registry.mutate r ~name:"nosuch" [ Registry.Add_edge (0, 1) ] with
    | Error _ -> true
    | Ok _ -> false);
  ignore (Registry.find r "cycle4");
  (match Registry.mutate r ~name:"cycle4 " [ Registry.Add_edge (0, 2) ] with
  | Ok o -> check_int "spec-fallback binding mutated" 5 (Graph.n_edges o.Registry.m_graph)
  | Error e -> Alcotest.failf "spec-fallback mutate failed: %s" e)

(* --- the in-process request pipeline ------------------------------------- *)

let make_server () =
  Server.create { Server.default_config with Server.socket_path = None }

let test_handle_line_flow () =
  let t = make_server () in
  check_bool "hello ok" true (P.is_ok (Server.handle_line t "HELLO"));
  check_bool "load ok" true (P.is_ok (Server.handle_line t "LOAD g petersen"));
  let src = "agg_sum{x2}([1] | E(x1,x2))" in
  let reply1 = Server.handle_line t (Printf.sprintf "QUERY g '%s'" src) in
  check_bool "first query ok" true (P.is_ok reply1);
  check_bool "first is a plan miss" true (contains ~needle:"\"plan_cache\":\"miss\"" reply1);
  (* Alpha-renamed source must land on the same cached plan. *)
  let reply2 = Server.handle_line t "QUERY g 'agg_sum{x6}([1] | E(x1,x6))'" in
  check_bool "second query ok" true (P.is_ok reply2);
  check_bool "alpha-equivalent query is a plan hit" true
    (contains ~needle:"\"plan_cache\":\"hit\"" reply2);
  (* The served values must match direct Glql_gel evaluation. *)
  let g = match Registry.graph_of_spec "petersen" with Ok g -> g | Error e -> failwith e in
  let table = Expr.eval g (Parser.parse src) in
  let expected =
    P.json_to_string
      (P.List
         (Array.to_list
            (Array.map
               (fun v -> P.List (Array.to_list (Array.map (fun x -> P.Float x) v)))
               table.Expr.tdata)))
  in
  check_bool "values match direct evaluation" true
    (contains ~needle:("\"values\":" ^ expected) reply1);
  check_bool "both replies identical" true
    (contains ~needle:("\"values\":" ^ expected) reply2)

(* Layered QUERY replies pinned byte for byte: the MD5 digest of each
   reply, recorded from the full-width layer-by-layer evaluator that the
   in-place schedule replaced. The shapes are the four MPNN shapes of the
   service benchmark plus one with non-integer sums (0.1 is inexact in
   binary, so a different addition order would change the last bits).
   Only IEEE-exact operations, so the digests hold on any libm. *)
let test_layered_reply_digests () =
  let t = make_server () in
  let shapes =
    [
      "agg_sum{x2}([1] | E(x1,x2))";
      "agg_sum{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))";
      "agg_sum{x2}(relu(agg_sum{x1}([1] | E(x2,x1))) | E(x1,x2))";
      "relu(agg_sum{x2}([2] | E(x1,x2)))";
      "scale(0.7)(agg_sum{x2}(scale(0.1)(agg_sum{x1}([1] | E(x2,x1))) | E(x1,x2)))";
    ]
  in
  let pinned =
    [
      ( "grid100x100",
        [
          "20203269084e4dd929ada2f13e59b50e";
          "00b9b05f666eee0e747b2aece925fb45";
          "00b9b05f666eee0e747b2aece925fb45";
          "c10394e5dff1ad394b5179fce579e662";
          "cf74db9642382d79d0e1855a1fe4a6fa";
        ] );
      ( "circulant5000c1c2c5c11",
        [
          "6bf69de38b7ec5a7cf14e12c87a6f8f7";
          "d4102cb8d122b3f41d0b7da672c0af34";
          "d4102cb8d122b3f41d0b7da672c0af34";
          "400d2b5c58ba729daa841f9a9315eac5";
          "7959307cf4f38dd69d84fa72db6d2ff4";
        ] );
    ]
  in
  List.iter
    (fun (g, digests) ->
      check_bool ("load " ^ g) true (P.is_ok (Server.handle_line t (Printf.sprintf "LOAD %s %s" g g)));
      List.iter2
        (fun src digest ->
          let reply = Server.handle_line t (Printf.sprintf "QUERY %s '%s'" g src) in
          check_bool (g ^ " layered plan") true (contains ~needle:"\"plan\":\"layered\"" reply);
          Alcotest.(check string) (g ^ " " ^ src) digest (Digest.to_hex (Digest.string reply)))
        shapes digests)
    pinned

(* Direct QUERY replies pinned byte for byte: the MD5 digest of each
   reply, recorded from the evaluator that materialised every
   subexpression over all assignments, before aggregations became joins
   over CSR. The shapes are the service benchmark's direct spellings
   (per-vertex triangles, 2-variable paths with their nonzero-tuple
   listing, the closed triangle count) on its ten graphs of at most 64
   vertices, in its request order, so the plan-cache field of each reply
   is fixed too. A max-aggregation MPNN, which has no layered plan, is
   pinned on grid30x30. *)
let test_direct_reply_digests () =
  let t = make_server () in
  let shapes =
    [
      "agg_sum{x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])";
      "agg_sum{x3,x2}(product(E(x1,x3), product(E(x3,x2), E(x2,x1))) | [1])";
      "agg_sum{x3}(product(E(x1,x3), E(x3,x2)) | [1])";
      "agg_sum{x4}(product(E(x1,x4), E(x4,x2)) | [1])";
      "scale(0.166667)(agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1]))";
    ]
  in
  let pinned =
    [
      ( "petersen",
        [
          "c7bf4d036096d15bac61ba701d8eb6fe";
          "0627a0c490ecc0c94ff1267d10c7b8f7";
          "4bf33afed8ca52a05efab7be6dba9e7b";
          "2d72ae343d6257212c2b85652316e058";
          "b8c8b3b3e01dfa5142f8ec268ae714ec";
        ] );
      ( "rook",
        [
          "012cd0e40edfa45e973c74a2ced7bf3b";
          "012cd0e40edfa45e973c74a2ced7bf3b";
          "e593e6a28770b8c16b301a98f815bfa5";
          "e593e6a28770b8c16b301a98f815bfa5";
          "198287c6df0d217dacfb775303cbddd8";
        ] );
      ( "shrikhande",
        [
          "9ce0288ad7004660a3c843e6b67e16d6";
          "9ce0288ad7004660a3c843e6b67e16d6";
          "7c8c48deb5b156af8565a6e4a5773395";
          "7c8c48deb5b156af8565a6e4a5773395";
          "8e03a8a3a40b4b55e163f2dcc8ae5cf2";
        ] );
      ( "decalin",
        [
          "1cc15ef56566eaae994dccc39d94bd98";
          "1cc15ef56566eaae994dccc39d94bd98";
          "c181977129b9670af2b7fde4550eaeaa";
          "c181977129b9670af2b7fde4550eaeaa";
          "02ae904716179da78b0a1fd06c804394";
        ] );
      ( "hexagon",
        [
          "d0d812a052f811bdc5cf1855e335956c";
          "d0d812a052f811bdc5cf1855e335956c";
          "f881598ce02b4b296b360eee04467e91";
          "f881598ce02b4b296b360eee04467e91";
          "5714e777a76cfb2327e85cbd85e7bcd3";
        ] );
      ( "cycle16",
        [
          "f9549e9e5a8adcee8334054ddb2691cc";
          "f9549e9e5a8adcee8334054ddb2691cc";
          "dedb175fc12781718c8cbb65c7a5674f";
          "dedb175fc12781718c8cbb65c7a5674f";
          "4e3f13e337136ddbd8e2468a070e5fd9";
        ] );
      ( "grid4x4",
        [
          "13ba5a3c928d49a0382cdc76e65b3259";
          "13ba5a3c928d49a0382cdc76e65b3259";
          "63ef187f980dfea5da4864303e9b711e";
          "63ef187f980dfea5da4864303e9b711e";
          "730441ffbc25400f99114d859f2045a0";
        ] );
      ( "cycle30",
        [
          "d2bb26e95c4a4c8269dc53e56e88b6cd";
          "d2bb26e95c4a4c8269dc53e56e88b6cd";
          "9146f59ea9d1be70e1c742f93096c0af";
          "9146f59ea9d1be70e1c742f93096c0af";
          "d42ede9483a3cec60cef86f9a5fb8e25";
        ] );
      ( "circulant48c1c5",
        [
          "5d715f4d38a79bd0b76b4792300e33b4";
          "5d715f4d38a79bd0b76b4792300e33b4";
          "6b55d2d72387745a0cea811ec755b032";
          "6b55d2d72387745a0cea811ec755b032";
          "4ac95ed17c375b9991377c4220f9a695";
        ] );
      ( "grid8x8",
        [
          "7bf96e51971bd74af104d9bd1793dde1";
          "7bf96e51971bd74af104d9bd1793dde1";
          "0944bf96c4ebc8bfa4655d19e4731cd5";
          "0944bf96c4ebc8bfa4655d19e4731cd5";
          "aaa9381d93db1ef35c55eb5f4eb5f656";
        ] );
    ]
  in
  let query g src digest =
    let reply = Server.handle_line t (Printf.sprintf "QUERY %s '%s'" g src) in
    check_bool (g ^ " direct plan") true (contains ~needle:"\"plan\":\"direct\"" reply);
    Alcotest.(check string) (g ^ " " ^ src) digest (Digest.to_hex (Digest.string reply))
  in
  List.iter
    (fun (g, digests) ->
      check_bool ("load " ^ g) true (P.is_ok (Server.handle_line t (Printf.sprintf "LOAD %s %s" g g)));
      List.iter2 (query g) shapes digests)
    pinned;
  check_bool "load grid30x30" true (P.is_ok (Server.handle_line t "LOAD grid30x30 grid30x30"));
  query "grid30x30" "agg_max{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))"
    "3b51d92f0c44e46f788f4e1497c3da30"

let test_handle_line_wl_cache () =
  let t = make_server () in
  let first = Server.handle_line t "WL petersen" in
  check_bool "wl ok" true (P.is_ok first);
  check_bool "first is a coloring miss" true (contains ~needle:"\"coloring_cache\":\"miss\"" first);
  check_bool "petersen is CR-homogeneous" true (contains ~needle:"\"classes\":1" first);
  let second = Server.handle_line t "WL petersen 1" in
  check_bool "smaller-round request hits the same entry" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" second);
  let kwl = Server.handle_line t "KWL petersen 2" in
  check_bool "kwl ok" true (P.is_ok kwl);
  check_bool "kwl rejects bad k" true
    (not (P.is_ok (Server.handle_line t "KWL petersen 7")))

let test_reload_serves_fresh_coloring () =
  let t = make_server () in
  check_bool "load cycle5" true (P.is_ok (Server.handle_line t "LOAD g cycle5"));
  let first = Server.handle_line t "WL g" in
  check_bool "wl on cycle5 ok" true (P.is_ok first);
  check_bool "cycle5 is CR-homogeneous" true (contains ~needle:"\"classes\":1" first);
  check_bool "cycle5 size" true (contains ~needle:"\"n\":5" first);
  (* Re-LOAD the same name: the cached cycle5 colouring must not be served
     for the replacement graph. *)
  check_bool "reload g as path4" true (P.is_ok (Server.handle_line t "LOAD g path4"));
  let second = Server.handle_line t "WL g" in
  check_bool "wl after reload ok" true (P.is_ok second);
  check_bool "fresh vertex count" true (contains ~needle:"\"n\":4" second);
  check_bool "recomputed, not served stale" true
    (contains ~needle:"\"coloring_cache\":\"miss\"" second);
  check_bool "path4 has end/middle classes" true (contains ~needle:"\"classes\":2" second);
  (* Same hazard via the spec fallback: WL on a bare spec name, then LOAD
     shadows that name with a different graph. *)
  ignore (Server.handle_line t "WL cycle6");
  check_bool "shadow spec name" true (P.is_ok (Server.handle_line t "LOAD cycle6 petersen"));
  let shadowed = Server.handle_line t "WL cycle6" in
  check_bool "shadowed wl ok" true (P.is_ok shadowed);
  check_bool "serves the shadowing graph" true (contains ~needle:"\"n\":10" shadowed);
  check_bool "shadowed colouring recomputed" true
    (contains ~needle:"\"coloring_cache\":\"miss\"" shadowed)

let test_cell_guard_overflow () =
  let t = make_server () in
  (* Nine free variables on a 150-vertex graph: 150^9 ~ 3.8e19 overflows
     max_int, so an int-rounded guard would be bypassed and evaluation
     would attempt an absurd table. The float comparison must reject. *)
  let src =
    "agg_sum{x10}([1] | product(E(x1,x2), product(E(x3,x4), product(E(x5,x6), \
     product(E(x7,x8), E(x9,x10))))))"
  in
  let reply = Server.handle_line t (Printf.sprintf "QUERY cycle150 '%s'" src) in
  check_bool "overflowing query rejected" false (P.is_ok reply);
  check_bool "rejection names the cell limit" true (contains ~needle:"cells" reply)

let test_handle_line_errors () =
  let t = make_server () in
  List.iter
    (fun line ->
      let reply = Server.handle_line t line in
      check_bool (Printf.sprintf "ERR reply for %S" line) false (P.is_ok reply);
      check_bool "starts with ERR" true
        (String.length reply >= 3 && String.sub reply 0 3 = "ERR"))
    [
      "garbage request";
      "LOAD g nosuchgenerator";
      "QUERY nosuchgraph 'agg_sum{x2}([1] | E(x1,x2))'";
      "QUERY petersen 'agg_sum{x2}(['";
      "QUERY petersen 'unclosed";
      "HOM petersen 99";
    ];
  (* Errors are counted but never crash the pipeline. *)
  let stats = Server.handle_line t "STATS" in
  check_bool "stats ok" true (P.is_ok stats);
  (* STATS reports the requests recorded before it, i.e. the six above. *)
  check_bool "stats counts requests" true (contains ~needle:"\"requests\":6" stats);
  check_bool "stats counts errors" true (contains ~needle:"\"errors\":6" stats);
  check_bool "stats exposes the plan cache" true (contains ~needle:"\"plan_misses\"" stats);
  List.iter
    (fun field ->
      check_bool ("stats reports " ^ field) true (contains ~needle:("\"" ^ field ^ "\":") stats))
    [ "gc_heap_words"; "gc_top_heap_words"; "gc_minor_collections"; "gc_major_collections" ]

(* Extract the float right after ["<key>":] in a one-line JSON reply. *)
let float_after key s =
  let needle = "\"" ^ key ^ "\":" in
  let nl = String.length needle and n = String.length s in
  let rec find i = if i + nl > n then None else if String.sub s i nl = needle then Some (i + nl) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E' in
      while !stop < n && is_num s.[!stop] do incr stop done;
      float_of_string_opt (String.sub s start (!stop - start))

(* All the floats following any occurrence of ["<key>":]. *)
let floats_after key s =
  let needle = "\"" ^ key ^ "\":" in
  let nl = String.length needle and n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i + nl <= n do
    if String.sub s !i nl = needle then begin
      match float_after key (String.sub s !i (n - !i)) with
      | Some f -> out := f :: !out
      | None -> ()
    end;
    incr i
  done;
  List.rev !out

let test_handle_line_explain () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let src = "agg_sum{x2}([1] | E(x1,x2))" in
  ignore (Server.handle_line t (Printf.sprintf "QUERY g '%s'" src));
  (* Warm cache: the plan is already compiled, yet EXPLAIN must still
     report every canonical stage, with the compile stage attributed to
     the cache. *)
  let reply = Server.handle_line t (Printf.sprintf "EXPLAIN g '%s'" src) in
  check_bool "explain ok" true (P.is_ok reply);
  List.iter
    (fun stage ->
      check_bool (Printf.sprintf "reports stage %s" stage) true
        (contains ~needle:(Printf.sprintf "\"stage\":\"%s\"" stage) reply))
    [ "parse"; "normalize"; "cache_lookup"; "compile"; "execute"; "materialize"; "other" ];
  check_bool "plan cache attribution" true (contains ~needle:"\"plan_cache\":\"hit\"" reply);
  check_bool "compile marked cached" true (contains ~needle:"\"cached\":true" reply);
  check_bool "no values payload" false (contains ~needle:"\"values\"" reply);
  (* Stage timings must sum to the reported total exactly (the synthetic
     "other" bucket absorbs unattributed time). *)
  (match (float_after "total_ms" reply, floats_after "ms" reply) with
  | Some total, stage_ms ->
      check_int "one ms per stage" 7 (List.length stage_ms);
      let sum = List.fold_left ( +. ) 0.0 stage_ms in
      check_bool
        (Printf.sprintf "stages sum (%g) = total (%g)" sum total)
        true
        (Float.abs (sum -. total) < 1e-6)
  | _ -> Alcotest.fail "missing total_ms or stage ms fields");
  (* A cold plan reports a real compile stage. *)
  let cold = Server.handle_line t "EXPLAIN g 'agg_max{x2}([1] | E(x1,x2))'" in
  check_bool "cold explain ok" true (P.is_ok cold);
  check_bool "cold explain is a plan miss" true (contains ~needle:"\"plan_cache\":\"miss\"" cold);
  check_bool "cold compile not cached" true (contains ~needle:"\"cached\":false" cold)

(* EXPLAIN of a layered query on a 10,000-vertex graph renders no values,
   yet still lists the materialize stage, and its stages still sum to
   the total. *)
let test_explain_layered_grid100 () =
  let t = make_server () in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD g grid100x100"));
  let reply =
    Server.handle_line t "EXPLAIN g 'agg_sum{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))'"
  in
  check_bool "explain ok" true (P.is_ok reply);
  check_bool "layered plan" true (contains ~needle:"\"plan\":\"layered\"" reply);
  check_bool "lists materialize" true (contains ~needle:"\"stage\":\"materialize\"" reply);
  check_bool "no values payload" false (contains ~needle:"\"values\"" reply);
  match (float_after "total_ms" reply, floats_after "ms" reply) with
  | Some total, stage_ms ->
      check_int "one ms per stage" 7 (List.length stage_ms);
      let sum = List.fold_left ( +. ) 0.0 stage_ms in
      check_bool
        (Printf.sprintf "stages sum (%g) = total (%g)" sum total)
        true
        (Float.abs (sum -. total) < 1e-6)
  | _ -> Alcotest.fail "missing total_ms or stage ms fields"

let test_handle_line_trace_option () =
  let t = make_server () in
  let reply = Server.handle_line t "QUERY petersen 'agg_sum{x2}([1] | E(x1,x2))' TRACE" in
  check_bool "traced query ok" true (P.is_ok reply);
  check_bool "trace attached" true (contains ~needle:"\"trace\":[" reply);
  List.iter
    (fun span ->
      check_bool (Printf.sprintf "trace has span %s" span) true
        (contains ~needle:(Printf.sprintf "\"name\":\"%s\"" span) reply))
    [ "request"; "parse"; "normalize"; "cache_lookup"; "compile"; "execute"; "materialize" ];
  (* Non-object replies are wrapped so the trace has somewhere to go. *)
  let ping = Server.handle_line t "PING TRACE" in
  check_bool "traced ping ok" true (P.is_ok ping);
  check_bool "ping value wrapped" true (contains ~needle:"\"value\":\"pong\"" ping);
  check_bool "ping trace attached" true (contains ~needle:"\"trace\":[" ping);
  (* Untraced requests carry no trace field. *)
  let bare = Server.handle_line t "PING" in
  check_bool "untraced ping has no trace" false (contains ~needle:"\"trace\"" bare)

let test_protocol_version_reporting () =
  let t = make_server () in
  let hello = Server.handle_line t "HELLO" in
  let version = Server.handle_line t "VERSION" in
  let stats = Server.handle_line t "STATS" in
  let needle = Printf.sprintf "\"protocol_version\":%d" P.protocol_version in
  check_bool "hello reports protocol" true (contains ~needle hello);
  check_bool "version reports protocol" true (contains ~needle version);
  check_bool "stats reports protocol" true (contains ~needle stats);
  (* STATS also carries the cumulative per-stage histograms: the two
     requests before it each ran under a "request" span. *)
  check_bool "stats has stages" true (contains ~needle:"\"stages\":{" stats);
  check_bool "stats counts request stage" true (contains ~needle:"\"request\":{\"count\":" stats)

let test_metrics_ring_wrap () =
  let m = Glql_server.Metrics.create () in
  let w = Glql_server.Metrics.window in
  (* Fill the ring exactly: latencies 1..w ns. *)
  for i = 1 to w do
    Glql_server.Metrics.record m ~command:"X" ~ok:true ~latency_ns:(Int64.of_int i)
  done;
  let p50_full = Glql_server.Metrics.percentile_ms m 50.0 in
  check_bool "p50 at exact fill" true
    (Float.abs (p50_full -. (float_of_int (w / 2) /. 1e6)) < 1e-9);
  (* Wrap halfway: the oldest half is overwritten by a large constant, so
     the window now holds w/2 small values (w/2+1 .. w) and w/2 big ones. *)
  for _ = 1 to w / 2 do
    Glql_server.Metrics.record m ~command:"X" ~ok:true ~latency_ns:1_000_000_000L
  done;
  let p50 = Glql_server.Metrics.percentile_ms m 50.0 in
  let p99 = Glql_server.Metrics.percentile_ms m 99.0 in
  check_bool "p50 after wrap is the largest small value" true
    (Float.abs (p50 -. (float_of_int w /. 1e6)) < 1e-9);
  check_bool "p99 after wrap lands in the overwritten half" true
    (Float.abs (p99 -. 1000.0) < 1e-9)

(* The nearest-rank rule the STATS percentiles promise, by sorting: the
   value of rank ceil(p/100 * n) among the last [window] values of the
   stream, in milliseconds. *)
let reference_percentile_ms ~window stream p =
  let n = Array.length stream in
  let filled = min n window in
  if filled = 0 then Float.nan
  else begin
    let recent = Array.sub stream (n - filled) filled in
    Array.sort compare recent;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int filled)) in
    float_of_int recent.(max 0 (min (filled - 1) (rank - 1))) /. 1e6
  end

let same_ms a b = Float.equal a b || (Float.is_nan a && Float.is_nan b)

(* A latency stream of 0 to 3 windows of values drawn from [0, spread);
   small spreads make it heavy in duplicates. *)
let stream_arb ~window =
  QCheck.make
    ~print:(fun (seed, n, spread) -> Printf.sprintf "stream(seed=%d,n=%d,spread=%d)" seed n spread)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 0 (3 * window)) (int_range 1 1_000_000))

let stream_of (seed, n, spread) =
  let rng = Glql_util.Rng.create seed in
  Array.init n (fun _ -> Glql_util.Rng.int rng spread)

let prop_percentiles_match_sorting =
  let window = Glql_server.Metrics.window in
  qtest ~count:12 "metrics: percentile_ms = sort-based nearest rank" (stream_arb ~window)
    (fun input ->
      let stream = stream_of input in
      let m = Glql_server.Metrics.create () in
      Array.iter
        (fun ns -> Glql_server.Metrics.record m ~command:"X" ~ok:true ~latency_ns:(Int64.of_int ns))
        stream;
      List.for_all
        (fun p ->
          same_ms (Glql_server.Metrics.percentile_ms m p) (reference_percentile_ms ~window stream p))
        [ 0.0; 1.0; 50.0; 99.0; 100.0 ])

let prop_stage_percentiles_match_sorting =
  let window = Glql_server.Metrics.stage_window in
  qtest ~count:25 "metrics: STATS stage p50/p99 = sort-based nearest rank" (stream_arb ~window)
    (fun input ->
      let stream = stream_of input in
      let m = Glql_server.Metrics.create () in
      Array.iter (fun ns -> Glql_server.Metrics.record_stage m ~stage:"s" ~dur_ns:ns) stream;
      let json = P.json_to_string (Glql_server.Metrics.to_json m ~extra:[]) in
      let ms key =
        match Result.map (Glql_util.Json.member "stages") (Glql_util.Json.parse json) with
        | Ok (Some stages) -> (
            match Option.bind (Glql_util.Json.member "s" stages) (Glql_util.Json.member key) with
            | Some (P.Float f) -> f
            | Some (P.Int i) -> float_of_int i
            | _ -> Float.nan)
        | _ -> Alcotest.fail "STATS JSON does not parse"
      in
      Array.length stream = 0
      || same_ms (ms "p50_ms") (reference_percentile_ms ~window stream 50.0)
         && same_ms (ms "p99_ms") (reference_percentile_ms ~window stream 99.0))

(* --- persistence ---------------------------------------------------------- *)

let test_registry_canonical_spec () =
  Alcotest.(check string) "whitespace collapsed" "cycle3+path4"
    (Registry.canonical_spec "  cycle3 +  path4 ");
  Alcotest.(check string) "already canonical" "petersen" (Registry.canonical_spec "petersen");
  (* The fallback path caches all spellings of one spec under one entry,
     sharing one generation (hence one set of colouring-cache keys). *)
  let r = Registry.create () in
  let gen name =
    match Registry.find_entry r name with
    | Ok (_, gen) -> gen
    | Error e -> Alcotest.failf "find_entry %s failed: %s" name e
  in
  let g0 = gen "cycle3+path4" in
  check_int "one entry for the spec" 1 (Registry.n_graphs r);
  check_int "spaced spelling shares the generation" g0 (gen "cycle3 + path4");
  check_int "still one entry" 1 (Registry.n_graphs r);
  (match Registry.find_binding r "cycle3 + path4" with
  | Ok (key, _, _) -> Alcotest.(check string) "resolves to the canonical binding" "cycle3+path4" key
  | Error e -> Alcotest.failf "find_entry failed: %s" e);
  (* Caches key by the binding a lookup resolved to: every spelling of a
     spec shares its colouring, and binding the spaced spelling itself
     later gives it entries of its own. *)
  let t = make_server () in
  ignore (Server.handle_line t "WL \"cycle3 + path4\"");
  check_bool "another spelling hits the spec's colouring" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" (Server.handle_line t "WL cycle3+path4"));
  ignore (Server.handle_line t "LOAD \"cycle3 + path4\" petersen");
  let wl = Server.handle_line t "WL \"cycle3 + path4\"" in
  check_bool "the newly bound spelling is recoloured" true
    (contains ~needle:"\"n\":10," wl && contains ~needle:"\"coloring_cache\":\"miss\"" wl)

let with_temp_snapshot f =
  let path = Filename.temp_file "glql_server_test" ".glqs" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_save_restore_roundtrip () =
  with_temp_snapshot @@ fun path ->
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let src = "agg_sum{x2}([1] | E(x1,x2))" in
  let warm_query = Server.handle_line t (Printf.sprintf "QUERY g '%s'" src) in
  let warm_wl = Server.handle_line t "WL g" in
  ignore (Server.handle_line t "KWL g 2");
  check_bool "SAVE without a path is an error (no --snapshot)" false
    (P.is_ok (Server.handle_line t "SAVE"));
  let save = Server.handle_line t (Printf.sprintf "SAVE %s" path) in
  check_bool "SAVE ok" true (P.is_ok save);
  check_bool "SAVE reports one graph" true (contains ~needle:"\"graphs\":1" save);
  check_bool "SAVE reports two colorings" true (contains ~needle:"\"colorings\":2" save);
  check_bool "SAVE reports one plan" true (contains ~needle:"\"plans\":1" save);
  (* A fresh server restored from the file answers warm: same values,
     same signature, plan and colouring caches hit, no recomputation. *)
  let t2 = make_server () in
  let cold_stats = Server.handle_line t2 "STATS" in
  check_bool "cold server reports restored:null" true
    (contains ~needle:"\"restored\":null" cold_stats);
  let restore = Server.handle_line t2 (Printf.sprintf "RESTORE %s" path) in
  check_bool "RESTORE ok" true (P.is_ok restore);
  let query2 = Server.handle_line t2 (Printf.sprintf "QUERY g '%s'" src) in
  check_bool "restored query is a plan hit" true
    (contains ~needle:"\"plan_cache\":\"hit\"" query2);
  let wl2 = Server.handle_line t2 "WL g" in
  check_bool "restored wl is a coloring hit" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" wl2);
  check_bool "restored kwl is a coloring hit" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" (Server.handle_line t2 "KWL g 2"));
  let values_of reply =
    match String.index_opt reply '{' with
    | Some i ->
        let tail = String.sub reply i (String.length reply - i) in
        let key = "\"values\":" in
        let rec find j =
          if j + String.length key > String.length tail then ""
          else if String.sub tail j (String.length key) = key then
            String.sub tail j (String.length tail - j)
          else find (j + 1)
        in
        find 0
    | None -> ""
  in
  Alcotest.(check string) "identical query values" (values_of warm_query) (values_of query2);
  let sig_of reply =
    match float_after "n" reply with
    | _ -> (
        let key = "\"signature\":\"" in
        let kl = String.length key and n = String.length reply in
        let rec find i =
          if i + kl > n then ""
          else if String.sub reply i kl = key then
            let stop = String.index_from reply (i + kl) '"' in
            String.sub reply (i + kl) (stop - i - kl)
          else find (i + 1)
        in
        find 0)
  in
  Alcotest.(check string) "identical wl signature" (sig_of warm_wl) (sig_of wl2);
  let stats = Server.handle_line t2 "STATS" in
  check_bool "stats reports the restored section" true (contains ~needle:"\"restored\":{" stats);
  check_bool "restored section names the file" true (contains ~needle:path stats)

let test_restore_malformed_leaves_state () =
  with_temp_snapshot @@ fun path ->
  let t = make_server () in
  ignore (Server.handle_line t "LOAD keepme petersen");
  ignore (Server.handle_line t "WL keepme");
  let cache_before = Cache.stats (Server.caches t) in
  let try_restore bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Server.handle_line t (Printf.sprintf "RESTORE %s" path)
  in
  List.iter
    (fun (label, bytes) ->
      let reply = try_restore bytes in
      check_bool (label ^ " rejected") false (P.is_ok reply);
      (* Registry and caches are untouched by a failed restore. *)
      let stats = Server.handle_line t "STATS" in
      check_bool (label ^ ": graph count unchanged") true
        (contains ~needle:"\"graphs_registered\":1" stats);
      check_int
        (label ^ ": coloring entries unchanged")
        (List.assoc "coloring_entries" cache_before)
        (List.assoc "coloring_entries" (Cache.stats (Server.caches t)));
      check_bool (label ^ ": still cold") true (contains ~needle:"\"restored\":null" stats))
    [
      ("empty file", "");
      ("bad magic", "JUNKJUNKJUNKJUNK");
      ("truncated container", String.sub (Glql_store.Container.to_string [ ("META", "x") ]) 0 10);
    ];
  check_bool "missing file rejected" false
    (P.is_ok (Server.handle_line t "RESTORE /nonexistent/snap.glqs"))

let test_restore_then_reload_stays_fresh () =
  with_temp_snapshot @@ fun path ->
  (* Colourings restored from a snapshot must still be invalidated by a
     LOAD that replaces the graph: a re-LOAD binds the next generation,
     past the restored one. *)
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g cycle5");
  ignore (Server.handle_line t "WL g");
  ignore (Server.handle_line t (Printf.sprintf "SAVE %s" path));
  let t2 = make_server () in
  ignore (Server.handle_line t2 (Printf.sprintf "RESTORE %s" path));
  check_bool "restored coloring serves warm" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" (Server.handle_line t2 "WL g"));
  ignore (Server.handle_line t2 "LOAD g path4");
  let after = Server.handle_line t2 "WL g" in
  check_bool "reload after restore recomputes" true
    (contains ~needle:"\"coloring_cache\":\"miss\"" after);
  check_bool "reload after restore serves the new graph" true (contains ~needle:"\"n\":4" after)

(* Generations are per name and a snapshot carries them: a restarted
   server answers the next MUTATE exactly as the first life did, however
   many other graphs either life bound. *)
let test_restore_then_mutate_matches_first_life () =
  with_temp_snapshot @@ fun path ->
  let t = make_server () in
  List.iter
    (fun l -> ignore (Server.handle_line t l))
    [
      "LOAD a cycle5"; "LOAD b cycle5"; "LOAD c cycle5"; "LOAD d cycle5"; "MUTATE d ADD_EDGES 0 2";
    ];
  ignore (Server.handle_line t (Printf.sprintf "SAVE %s" path));
  let first_life = Server.handle_line t "MUTATE d ADD_EDGES 1 3" in
  check_bool "first life counts d's own history" true
    (contains ~needle:"\"generation\":2" first_life);
  let t2 = make_server () in
  ignore (Server.handle_line t2 (Printf.sprintf "RESTORE %s" path));
  Alcotest.(check string) "MUTATE after restore byte-identical" first_life
    (Server.handle_line t2 "MUTATE d ADD_EDGES 1 3")

(* RESTORE onto a name this process already bound at the saved
   generation: the binding moves one past the live one, the file's
   colouring and its current model follow it, and a model fitted on the
   replaced live graph goes stale. *)
let test_restore_onto_live_binding () =
  with_temp_snapshot @@ fun path ->
  let train name =
    Printf.sprintf "TRAIN %s ON x WITH 'deg;hom3' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 3"
      name
  in
  let t = make_server () in
  ignore (Server.handle_line t "LOAD x cycle5");
  ignore (Server.handle_line t "WL x");
  let wl_warm = Server.handle_line t "WL x" in
  check_bool "file model trained" true (P.is_ok (Server.handle_line t (train "filed")));
  ignore (Server.handle_line t (Printf.sprintf "SAVE %s" path));
  let t2 = make_server () in
  ignore (Server.handle_line t2 "LOAD y path3");
  ignore (Server.handle_line t2 "LOAD x petersen");
  check_bool "live-only model trained" true (P.is_ok (Server.handle_line t2 (train "live")));
  check_bool "RESTORE onto the live binding ok" true
    (P.is_ok (Server.handle_line t2 (Printf.sprintf "RESTORE %s" path)));
  Alcotest.(check string) "WL answers the restored graph from the restored colouring" wl_warm
    (Server.handle_line t2 "WL x");
  check_bool "the model current at save time is fresh" true
    (contains ~needle:"\"stale\":false" (Server.handle_line t2 "PREDICT filed x"));
  check_bool "the live-only model is stale" true
    (contains ~needle:"\"stale\":true" (Server.handle_line t2 "PREDICT live x"));
  check_bool "the binding moved one past the live generation" true
    (contains ~needle:"\"generation\":2" (Server.handle_line t2 "MUTATE x ADD_EDGES 0 2"))

let test_cache_clear_resets_entries () =
  let t = make_server () in
  ignore (Server.handle_line t "QUERY petersen 'agg_sum{x2}([1] | E(x1,x2))'");
  ignore (Server.handle_line t "WL petersen");
  let before = Cache.stats (Server.caches t) in
  check_int "one plan cached" 1 (List.assoc "plan_entries" before);
  check_int "one coloring cached" 1 (List.assoc "coloring_entries" before);
  Cache.clear (Server.caches t);
  let after = Cache.stats (Server.caches t) in
  check_int "plans cleared" 0 (List.assoc "plan_entries" after);
  check_int "colorings cleared" 0 (List.assoc "coloring_entries" after);
  check_int "miss counters survive" 1 (List.assoc "plan_misses" after)

(* --- governance: error codes, deadlines, limits -------------------------- *)

module Line_buf = Glql_server.Line_buf
module Clock = Glql_util.Clock

let code_of reply =
  (* Replies look like: ERR {"code":"ERR_X","message":"..."} *)
  let marker = "\"code\":\"" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length reply then None
    else if String.sub reply i ml = marker then
      let j = String.index_from reply (i + ml) '"' in
      Some (String.sub reply (i + ml) (j - i - ml))
    else find (i + 1)
  in
  find 0

let test_error_codes () =
  let t = make_server () in
  let expect line code =
    let reply = Server.handle_line t line in
    check_bool (Printf.sprintf "ERR reply for %S" line) false (P.is_ok reply);
    Alcotest.(check (option string)) (Printf.sprintf "code for %S" line) (Some code)
      (code_of reply)
  in
  expect "garbage request" "ERR_PARSE";
  expect "QUERY nosuchgraph 'agg_sum{x2}([1] | E(x1,x2))'" "ERR_UNKNOWN_GRAPH";
  expect "QUERY petersen 'agg_sum{x2}(['" "ERR_QUERY";
  expect "LOAD g nosuchgenerator" "ERR_BAD_SPEC";
  expect "KWL petersen 7" "ERR_BAD_ARG";
  expect "HOM petersen 99" "ERR_BAD_ARG";
  expect "RESTORE /nonexistent/snap.glqs" "ERR_SNAPSHOT";
  (* The overflow-proof cell guard now carries its own code. *)
  let big =
    "agg_sum{x10}([1] | product(E(x1,x2), product(E(x3,x4), product(E(x5,x6), \
     product(E(x7,x8), E(x9,x10))))))"
  in
  expect (Printf.sprintf "QUERY cycle150 '%s'" big) "ERR_LIMIT_CELLS";
  (* OK replies are unchanged by the structured-error work. *)
  check_bool "ok reply intact" true (P.is_ok (Server.handle_line t "PING"))

let test_hom_cost_guard () =
  let t = make_server () in
  (* cycle5000 at pattern size 9: ~95 patterns x 9 vertices x (n + 2m) =
     95 * 9 * 15000 = 1.28e7 cells of DP work per the guard's estimate —
     over the 4M default budget, rejected before any evaluation. *)
  let reply = Server.handle_line t "HOM cycle5000 9" in
  check_bool "oversized HOM rejected" false (P.is_ok reply);
  Alcotest.(check (option string)) "cost guard code" (Some "ERR_LIMIT_COST") (code_of reply);
  (* Small graphs still pass the guard and evaluate. *)
  check_bool "petersen HOM still ok" true (P.is_ok (Server.handle_line t "HOM petersen 9"))

let test_deadline_cancels_kernels () =
  (* A timeout far below the kernels' runtime: the cooperative checks
     inside WL / k-WL / HOM must abort mid-computation with ERR_DEADLINE
     (the pre-stage checks may also fire; either way the code is the
     deadline code and the reply is prompt). *)
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; request_timeout_s = 0.003 }
  in
  let expect_deadline line =
    let reply = Server.handle_line t line in
    check_bool (Printf.sprintf "cancelled: %s" line) false (P.is_ok reply);
    Alcotest.(check (option string)) (Printf.sprintf "deadline code for %s" line)
      (Some "ERR_DEADLINE") (code_of reply)
  in
  (* 3-WL on grid6x6 walks 46656 tuples per round — hundreds of ms. *)
  expect_deadline "KWL grid6x6 3";
  (* Colour refinement on path5000 stabilises only after ~2500 rounds. *)
  expect_deadline "WL path5000";
  (* grid30x30 at size 9 passes the cost guard (~3.7M < 4M) but the
     per-pattern deadline check fires during profile evaluation. *)
  expect_deadline "HOM grid30x30 9";
  (* The same server still answers instant requests fine. *)
  check_bool "cheap request unaffected" true (P.is_ok (Server.handle_line t "PING"));
  check_bool "small graph unaffected" true (P.is_ok (Server.handle_line t "WL petersen"))

(* The request timeout reaches inside GEL evaluation. No atom of this
   guard prunes the join (only inequalities), so it walks all 5·10^8
   assignments of four variables on cycle150, about ten seconds of work
   on a 2-vCPU host, while its output is only 150 cells and passes the
   cell guard. *)
let test_gel_deadline_inside_eval () =
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; request_timeout_s = 1.0 }
  in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD c cycle150"));
  let t0 = Glql_util.Clock.now_ns () in
  let reply =
    Server.handle_line t
      "QUERY c 'agg_sum{x2,x3,x4}([1] | product(1[x1!=x2], product(1[x2!=x3], 1[x3!=x4])))'"
  in
  let elapsed = Glql_util.Clock.ns_to_s (Glql_util.Clock.elapsed_ns t0) in
  Alcotest.(check (option string)) "deadline code" (Some "ERR_DEADLINE") (code_of reply);
  check_bool (Printf.sprintf "answered within 1.5 s (took %.2f s)" elapsed) true (elapsed < 1.5);
  check_bool "server still serving" true (P.is_ok (Server.handle_line t "QUERY c 'agg_sum{x2}([1] | E(x1,x2))'"))

(* The request timeout reaches inside layered evaluation. Forty rounds
   of 20-wide sums over complete1000's 999,000 arcs are ~8·10^8
   additions, seconds of work on a 2-vCPU host, for a 1,000-row reply;
   the deadline checks between rounds and vertices stop it early. *)
let test_layered_deadline_inside_eval () =
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; request_timeout_s = 0.1 }
  in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD k complete1000"));
  let ones = "[" ^ String.concat ";" (List.init 20 (fun _ -> "1")) ^ "]" in
  let rec nest d ~free ~bound =
    if d = 0 then ones
    else
      Printf.sprintf "agg_sum{%s}(%s | E(%s,%s))" bound (nest (d - 1) ~free:bound ~bound:free)
        free bound
  in
  let src = nest 40 ~free:"x1" ~bound:"x2" in
  let t0 = Glql_util.Clock.now_ns () in
  let reply = Server.handle_line t (Printf.sprintf "QUERY k '%s'" src) in
  let elapsed = Glql_util.Clock.ns_to_s (Glql_util.Clock.elapsed_ns t0) in
  Alcotest.(check (option string)) "deadline code" (Some "ERR_DEADLINE") (code_of reply);
  check_bool "stopped inside evaluation" true (contains ~needle:"during evaluation" reply);
  check_bool (Printf.sprintf "answered within 1 s (took %.2f s)" elapsed) true (elapsed < 1.0);
  (match Cache.plan (Server.caches t) src with
  | Ok (plan, _) -> check_bool "the plan is layered" true (plan.Cache.layered <> None)
  | Error e -> Alcotest.fail e);
  check_bool "server still serving" true
    (P.is_ok (Server.handle_line t "QUERY k 'agg_sum{x2}([1] | E(x1,x2))'"))

(* A max-aggregation MPNN has no layered plan and is evaluated directly;
   its edge guards drive the join over CSR rows, so grid100x100 costs
   O(n + m), with no n^2 table of E(x1,x2). *)
let test_direct_max_mpnn_grid100 () =
  let t = make_server () in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD g grid100x100"));
  let reply = Server.handle_line t "QUERY g 'agg_max{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))'" in
  check_bool "answered" true (P.is_ok reply);
  check_bool "direct plan" true (contains ~needle:"\"plan\":\"direct\"" reply);
  (* A corner's neighbours have degree 3, an interior vertex's 4. *)
  check_bool "corner value" true (contains ~needle:"\"values\":[[3],[4]," reply)

let test_featurize_cell_budget_preempts () =
  (* The cell budget is enforced column by column, before each block is
     materialized: a vertex-mode wl one-hot (width = stable class count,
     near n on a colour-diverse graph) must be rejected before the
     O(n·width) allocation. The reported dimensions pin the early trip:
     the guard fires AT the wl column (accumulated width deg+wl), not
     after building the whole recipe (which would also count label). *)
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; max_table_cells = 20 }
  in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD g path10"));
  let wl = Server.handle_line t "WL g" in
  (* The vertex-mode wl one-hot is indexed by raw color id, so its width
     is 1 + max color id; recover that from the WL reply's colors list. *)
  let max_color =
    let marker = "\"colors\":[" in
    match String.index_opt wl '[' with
    | None -> Alcotest.fail "no colors list in the WL reply"
    | Some _ ->
        let start =
          let rec find i =
            if i + String.length marker > String.length wl then
              Alcotest.fail "no colors list in the WL reply"
            else if String.sub wl i (String.length marker) = marker then i + String.length marker
            else find (i + 1)
          in
          find 0
        in
        let stop = String.index_from wl start ']' in
        String.sub wl start (stop - start) |> String.split_on_char ','
        |> List.fold_left (fun acc s -> max acc (int_of_string (String.trim s))) (-1)
  in
  check_bool "path10 is colour-diverse" true (max_color > 0);
  let wl_width = 1 + max_color in
  let reply = Server.handle_line t "FEATURIZE g 'deg;wl;label'" in
  check_bool "over-budget recipe rejected" false (P.is_ok reply);
  Alcotest.(check (option string)) "cell-guard code" (Some "ERR_LIMIT_CELLS") (code_of reply);
  check_bool "guard fired at the wl column, before the rest of the recipe" true
    (contains ~needle:(Printf.sprintf "feature matrix 10x%d " (1 + wl_width)) reply);
  (* An in-budget recipe on the same server still evaluates. *)
  check_bool "small recipe still fine" true (P.is_ok (Server.handle_line t "FEATURIZE g 'deg'"))

let test_train_honours_deadline () =
  (* The per-request timeout reaches inside the fit's epoch loop: TRAIN
     with a huge EPOCHS over many rows aborts with ERR_DEADLINE instead
     of blocking the (single-threaded) worker until the fit completes,
     and the aborted fit leaves no half-registered model. *)
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; request_timeout_s = 0.05 }
  in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD g path2000"));
  let reply =
    Server.handle_line t
      "TRAIN slow ON g WITH 'deg' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 10000"
  in
  check_bool "TRAIN cancelled" false (P.is_ok reply);
  Alcotest.(check (option string)) "deadline code" (Some "ERR_DEADLINE") (code_of reply);
  check_bool "no half-registered model" false
    (contains ~needle:"\"name\":\"slow\"" (Server.handle_line t "MODELS"));
  check_bool "server still serving" true (P.is_ok (Server.handle_line t "PING"))

let test_batch_coalescing () =
  let t = make_server () in
  check_bool "load g" true (P.is_ok (Server.handle_line t "LOAD g petersen"));
  (* One select-loop batch: two WL, two KWL, two HOM requests on the
     same graph. Whatever order the pool runs them in, the cache's
     single-flight lookup computes each colouring and profile once: the
     second asker waits for the first one's value or finds it stored. *)
  let replies = Server.handle_lines t [| "WL g"; "WL g 1"; "KWL g 2"; "KWL g 2"; "HOM g 4"; "HOM g 4" |] in
  Array.iteri
    (fun i r -> check_bool (Printf.sprintf "batched reply %d ok" i) true (P.is_ok r))
    replies;
  let tags i j =
    List.sort compare
      (List.map
         (fun r ->
           if contains ~needle:"\"coloring_cache\":\"miss\"" r then "miss"
           else if contains ~needle:"\"coloring_cache\":\"hit\"" r then "hit"
           else "none")
         [ replies.(i); replies.(j) ])
  in
  Alcotest.(check (list string)) "one WL reply computed, the other hit" [ "hit"; "miss" ] (tags 0 1);
  Alcotest.(check (list string)) "one KWL reply computed, the other hit" [ "hit"; "miss" ] (tags 2 3);
  check_bool "same HOM replies" true (replies.(4) = replies.(5));
  check_bool "batched WL classes" true (contains ~needle:"\"classes\":1" replies.(0));
  let stats = Server.handle_line t "STATS" in
  (* Exactly one pass of each kernel ran for the whole batch: the
     cumulative stage histograms saw a single wl.refine / kwl.refine /
     hom.profile span. *)
  check_bool "one WL refinement" true (contains ~needle:"\"wl.refine\":{\"count\":1," stats);
  check_bool "one k-WL refinement" true (contains ~needle:"\"kwl.refine\":{\"count\":1," stats);
  check_bool "one hom profile" true (contains ~needle:"\"hom.profile\":{\"count\":1," stats);
  (* A smaller HOM later is a prefix of the stored size-4 profile: no new
     profile pass, and the same reply a fresh server computes. *)
  let solo_hom = Server.handle_line t "HOM g 3" in
  check_bool "HOM g 3 served from the stored profile" true
    (contains ~needle:"\"hom.profile\":{\"count\":1," (Server.handle_line t "STATS"));
  let fresh = make_server () in
  check_bool "load g on a fresh server" true (P.is_ok (Server.handle_line fresh "LOAD g petersen"));
  Alcotest.(check string) "prefix HOM equals a fresh HOM" (Server.handle_line fresh "HOM g 3") solo_hom

(* The request timeout reaches inside a k-WL round: grid20x20 at k = 2
   costs seconds a round on a 2-vCPU host, and the tuple loop checks the
   deadline every 1,024 tuples. *)
let test_kwl_deadline_inside_round () =
  let t =
    Server.create
      { Server.default_config with Server.socket_path = None; request_timeout_s = 1.0 }
  in
  check_bool "load" true (P.is_ok (Server.handle_line t "LOAD g grid20x20"));
  let t0 = Glql_util.Clock.now_ns () in
  let reply = Server.handle_line t "KWL g 2" in
  let elapsed = Glql_util.Clock.ns_to_s (Glql_util.Clock.elapsed_ns t0) in
  Alcotest.(check (option string)) "deadline code" (Some "ERR_DEADLINE") (code_of reply);
  check_bool (Printf.sprintf "answered within 2 s (took %.2f s)" elapsed) true (elapsed < 2.0);
  check_bool "server still serving" true (P.is_ok (Server.handle_line t "KWL g 1"))

(* --- MUTATE through the pipeline and the seeded colouring cache ---------- *)

let test_handle_line_mutate () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g cycle5");
  check_bool "baseline wl homogeneous" true
    (contains ~needle:"\"classes\":1" (Server.handle_line t "WL g"));
  let reply = Server.handle_line t "MUTATE g ADD_EDGES 0 2 DEL_EDGES 1 3" in
  check_bool "mutate ok" true (P.is_ok reply);
  check_bool "applied counts" true
    (contains ~needle:"\"applied\":{\"add_edges\":1,\"del_edges\":0,\"set_labels\":0}" reply);
  check_bool "edges updated" true (contains ~needle:"\"edges\":6" reply);
  check_bool "rejected op reported with index" true
    (contains ~needle:"\"index\":1" reply && contains ~needle:"\"op\":\"DEL_EDGE\"" reply);
  check_bool "rejected op carries a v4 code" true
    (contains ~needle:"\"code\":\"ERR_BAD_ARG\"" reply);
  (* Reads recompute on the new generation: the chord splits cycle5 into
     three orbits. *)
  let wl = Server.handle_line t "WL g" in
  check_bool "post-mutate wl recomputed" true
    (contains ~needle:"\"coloring_cache\":\"miss\"" wl);
  check_bool "post-mutate wl sees the chord" true (contains ~needle:"\"classes\":3" wl);
  (* An all-rejected batch keeps the generation: the colouring stays warm. *)
  let noop = Server.handle_line t "MUTATE g ADD_EDGES 0 2" in
  check_bool "all-rejected batch is still an OK reply" true (P.is_ok noop);
  check_bool "all-rejected batch reports the rejection" true
    (contains ~needle:"\"already present\"" noop || contains ~needle:"already present" noop);
  check_bool "generation kept: wl still warm" true
    (contains ~needle:"\"coloring_cache\":\"hit\"" (Server.handle_line t "WL g"));
  (* MUTATE never builds specs. *)
  let unknown = Server.handle_line t "MUTATE nosuchgraph ADD_EDGES 0 1" in
  check_bool "unknown graph rejected" false (P.is_ok unknown);
  Alcotest.(check (option string)) "unknown graph code" (Some "ERR_UNKNOWN_GRAPH")
    (code_of unknown)

let test_handle_line_mutate_incremental () =
  (* A chord on a 100-cycle changes the colouring globally — new colour
     classes ripple outward one hop per round — so the frontier outgrows
     the default cap and the seed path must *fall back* to a full
     refinement.  That is the correct outcome here: the counters must say
     fallback (not incremental), the seed must still be consumed, and the
     reply must match a cold refinement bit-for-bit.  The happy path,
     where the frontier stays small, is covered at the Cache level by
     [test_cache_seed_lifecycle] on a sparse random graph. *)
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g cycle100");
  ignore (Server.handle_line t "WL g");
  check_bool "mutate ok" true (P.is_ok (Server.handle_line t "MUTATE g ADD_EDGES 0 2"));
  let wl = Server.handle_line t "WL g" in
  check_bool "post-mutate wl is a miss (reply bytes are v4)" true
    (contains ~needle:"\"coloring_cache\":\"miss\"" wl);
  let stats = Server.handle_line t "STATS" in
  check_bool "global recolouring fell back to a full refinement" true
    (contains ~needle:"\"incremental_fallbacks\":1" stats);
  check_bool "not miscounted as incremental" true
    (contains ~needle:"\"incremental_recolors\":0" stats);
  check_bool "seed consumed" true (contains ~needle:"\"seed_entries\":0" stats);
  (* Fallback or not, the served colouring matches a cold refinement. *)
  let g = match Registry.graph_of_spec "cycle100" with Ok g -> g | Error e -> failwith e in
  let g' = Graph.mutate g ~add_edges:[ (0, 2) ] ~del_edges:[] ~set_labels:[] in
  let cold = Cr.run g' in
  check_bool "classes match cold refinement" true
    (contains
       ~needle:(Printf.sprintf "\"classes\":%d" (Cr.n_classes cold))
       wl)

(* [seed_plan] (snapshot restore) and [plan] (every QUERY) parse and
   compile through one path, so a bad source fails both with one message
   and caches nothing. *)
let test_seed_plan_errors_match_plan () =
  let cache = Cache.create ~plan_capacity:4 ~coloring_capacity:8 () in
  List.iter
    (fun (name, src, prefix) ->
      let seeded = Cache.seed_plan cache ~src in
      let planned = Result.map fst (Cache.plan cache src) in
      match (seeded, planned) with
      | Error a, Error b ->
          Alcotest.(check string) name a b;
          check_bool (name ^ " prefix") true (String.starts_with ~prefix a)
      | _ -> Alcotest.failf "%s: expected an error from both" name)
    [
      ("parse error", "agg_sum{x2}(", "parse error: ");
      ("type error", "agg_sum{x2,x2}([1] | E(x1,x2))", "type error: ");
    ];
  check_int "nothing cached" 0 (List.assoc "plan_entries" (Cache.stats cache))

(* A type error the parser lets through (a variable bound twice) is a
   query error, not an internal one, for QUERY and EXPLAIN alike. *)
let test_binder_type_error_is_query_error () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD p petersen");
  let expected =
    P.err_line (P.error ~code:"ERR_QUERY" "type error: aggregation binds a variable twice")
  in
  List.iter
    (fun verb ->
      Alcotest.(check string) verb expected
        (Server.handle_line t (verb ^ " p 'agg_sum{x2,x2}([1] | E(x1,x2))'")))
    [ "QUERY"; "EXPLAIN" ]

(* A seeded plan is found by [plan] under its canonical key (alpha
   variants included) without counting a miss, and seeding a key that is
   already cached keeps the plan it holds. *)
let test_seeded_plan_is_a_hit () =
  let cache = Cache.create ~plan_capacity:4 ~coloring_capacity:8 () in
  let src = "agg_sum{x2}(lab0(x2) | E(x1,x2))" in
  let variant = "agg_sum{x3}(lab0(x3) | E(x1,x3))" in
  let key = match Cache.seed_plan cache ~src with Ok k -> k | Error e -> Alcotest.fail e in
  Alcotest.(check (result string string)) "variant seeds the same key" (Ok key)
    (Cache.seed_plan cache ~src:variant);
  List.iter
    (fun q ->
      match Cache.plan cache q with
      | Ok (p, `Hit) ->
          Alcotest.(check string) (q ^ " key") key p.Cache.key;
          Alcotest.(check string) (q ^ " keeps the first source") src p.Cache.src
      | Ok (_, `Miss) -> Alcotest.failf "%s: seeded plan missed" q
      | Error e -> Alcotest.fail e)
    [ src; variant ];
  let s = Cache.stats cache in
  check_int "one entry" 1 (List.assoc "plan_entries" s);
  check_int "two hits" 2 (List.assoc "plan_hits" s);
  check_int "no misses" 0 (List.assoc "plan_misses" s)

(* [eval_plan] answers a [lab] beyond the label dimension as an [Error]
   with one message, whether the plan is layered or a join. *)
let test_eval_plan_label_error () =
  let cache = Cache.create ~plan_capacity:4 ~coloring_capacity:8 () in
  let g = Generators.petersen () in
  List.iter
    (fun (src, layered) ->
      match Cache.plan cache src with
      | Error e -> Alcotest.fail e
      | Ok (p, _) ->
          check_bool (src ^ " plan kind") layered (p.Cache.layered <> None);
          Alcotest.(check (result reject string)) src
            (Error "type error: lab3: graph has label dimension 1") (Cache.eval_plan p g))
    [ ("agg_sum{x2}(lab3(x2) | E(x1,x2))", true); ("agg_max{x2}(lab3(x2) | E(x1,x2))", false) ]

let test_cache_seed_lifecycle () =
  (* A sparse random graph is near-discrete after a couple of WL rounds,
     so a two-edge mutation keeps the recolouring frontier well under the
     default cap — this is the happy path where the seed actually pays:
     the counters must say incremental, never fallback. *)
  let g = Generators.erdos_renyi (Glql_util.Rng.create 71) ~n:100 ~p:0.06 in
  let g' = Graph.mutate g ~add_edges:[ (0, 2) ] ~del_edges:[] ~set_labels:[] in
  let cache = Cache.create ~plan_capacity:4 ~coloring_capacity:8 () in
  let _, h0 = Cache.cr cache ~graph_name:"g" ~gen:0 g in
  check_bool "cold compute is a miss" true (h0 = `Miss);
  Cache.note_mutation cache ~graph_name:"g" ~old_gen:0 ~gen:1 ~touched_adj:[ 0; 2 ]
    ~touched_lab:[];
  let s = Cache.stats cache in
  check_int "old entry became the seed" 1 (List.assoc "coloring_entries" s);
  check_int "one seed" 1 (List.assoc "seed_entries" s);
  check_bool "seed bytes counted" true
    (List.assoc "seed_bytes" s > 0 && List.assoc "seed_bytes" s <= List.assoc "coloring_bytes" s);
  (* Stacked mutations merge into the existing seed instead of dropping it. *)
  let g'' = Graph.mutate g' ~add_edges:[ (5, 50) ] ~del_edges:[] ~set_labels:[] in
  Cache.note_mutation cache ~graph_name:"g" ~old_gen:1 ~gen:2 ~touched_adj:[ 5; 50 ]
    ~touched_lab:[];
  check_int "still one seed after stacking" 1 (List.assoc "seed_entries" (Cache.stats cache));
  let r, h1 = Cache.cr cache ~graph_name:"g" ~gen:2 g'' in
  check_bool "seeded compute still reports a miss" true (h1 = `Miss);
  let s2 = Cache.stats cache in
  check_int "seed consumed" 0 (List.assoc "seed_entries" s2);
  check_int "incremental recolor counted" 1 (List.assoc "incremental_recolors" s2);
  check_int "no fallback" 0 (List.assoc "incremental_fallbacks" s2);
  (* Bit-identical to a cold run across the stacked mutations. *)
  let cold = Cr.run g'' in
  check_bool "identical history" true (Cr.history r = Cr.history cold);
  check_bool "identical stable colours" true (Cr.stable_colors r = Cr.stable_colors cold)

let test_cache_seed_evicted_first () =
  (* Measure one colouring's cost, then give the cache room for about two:
     the cold-inserted seed must be the first thing evicted, never a live
     entry. *)
  let graph name = match Registry.graph_of_spec name with Ok g -> g | Error e -> failwith e in
  let probe = Cache.create ~plan_capacity:4 ~coloring_capacity:8 () in
  ignore (Cache.cr probe ~graph_name:"g" ~gen:0 (graph "cycle100"));
  let one = List.assoc "coloring_bytes" (Cache.stats probe) in
  let cache =
    Cache.create ~coloring_bytes:((2 * one) + (one / 2)) ~plan_capacity:4 ~coloring_capacity:8 ()
  in
  ignore (Cache.cr cache ~graph_name:"g" ~gen:0 (graph "cycle100"));
  Cache.note_mutation cache ~graph_name:"g" ~old_gen:0 ~gen:1 ~touched_adj:[ 0; 2 ]
    ~touched_lab:[];
  check_int "seed live under budget" 1 (List.assoc "seed_entries" (Cache.stats cache));
  ignore (Cache.cr cache ~graph_name:"h" ~gen:0 (graph "cycle101"));
  ignore (Cache.cr cache ~graph_name:"i" ~gen:0 (graph "cycle102"));
  let s = Cache.stats cache in
  check_int "seed evicted first under pressure" 0 (List.assoc "seed_entries" s);
  check_bool "eviction counted" true (List.assoc "coloring_evictions" s >= 1);
  (* Both live colourings survived the seed's eviction. *)
  check_bool "live entry h survived" true
    (snd (Cache.cr cache ~graph_name:"h" ~gen:0 (graph "cycle101")) = `Hit);
  check_bool "live entry i survived" true
    (snd (Cache.cr cache ~graph_name:"i" ~gen:0 (graph "cycle102")) = `Hit);
  (* With the seed gone, the next generation recolours cold: counted as
     neither incremental nor fallback. *)
  let g' = Graph.mutate (graph "cycle100") ~add_edges:[ (0, 2) ] ~del_edges:[] ~set_labels:[] in
  ignore (Cache.cr cache ~graph_name:"g" ~gen:1 g');
  let s2 = Cache.stats cache in
  check_int "no incremental without a seed" 0 (List.assoc "incremental_recolors" s2);
  check_int "no fallback without a seed" 0 (List.assoc "incremental_fallbacks" s2)

let prop_parse_request_total =
  qtest ~count:500 "parse_request never raises" QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match P.parse_request s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- line framing --------------------------------------------------------- *)

let feed_ok lb s =
  match Line_buf.feed_string lb s with
  | Ok lines -> lines
  | Error _ -> Alcotest.fail "unexpected Line_buf error"

let test_line_buf_framing () =
  let lb = Line_buf.create () in
  Alcotest.(check (list string)) "partial line held" [] (feed_ok lb "PI");
  check_int "pending counted" 2 (Line_buf.pending_bytes lb);
  Alcotest.(check (list string)) "completed on newline" [ "PING" ] (feed_ok lb "NG\n");
  check_int "pending drained" 0 (Line_buf.pending_bytes lb);
  Alcotest.(check (list string)) "many lines one chunk" [ "a"; "b"; "c" ]
    (feed_ok lb "a\nb\nc\n");
  Alcotest.(check (list string)) "crlf stripped" [ "HELLO" ] (feed_ok lb "HELLO\r\n");
  Alcotest.(check (list string)) "tail kept after lines" [ "x" ] (feed_ok lb "x\nQUE");
  Alcotest.(check (list string)) "tail completes later" [ "QUERY" ] (feed_ok lb "RY\n");
  Alcotest.(check (list string)) "empty lines surface" [ ""; "" ] (feed_ok lb "\n\n")

(* The loop's out buffer over a real socket pair. First ~3 MiB of
   numbered lines are queued while the peer reads nothing, flushed until
   the socket is full, then drained in small reads while flushing. Then,
   with a small send buffer, random appends, flushes and reads interleave
   so appends land behind partly written bytes (compaction and growth).
   Every byte must arrive exactly once and in order, and each flush must
   lower the pending count by exactly what it reports writing. *)
let test_outbuf_partial_writes () =
  let module O = Glql_server.Conn_loop.Outbuf in
  let writer, reader = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock writer;
  let ob = ref (O.create ()) in
  let expected = Buffer.create (4 * 1024 * 1024) in
  let next = ref 0 in
  let queue_line () =
    let line = Printf.sprintf "%08d %s\n" !next (String.make (!next mod 61) 'x') in
    incr next;
    Buffer.add_string expected line;
    O.add !ob line
  in
  let flush () =
    let before = O.pending !ob in
    let wrote = O.flush !ob writer in
    check_int "pending falls by exactly the bytes written" wrote (before - O.pending !ob);
    wrote
  in
  let got = Buffer.create (Buffer.length expected) in
  let chunk = Bytes.create 4096 in
  let read_some len =
    match Unix.read reader chunk 0 len with
    | n -> Buffer.add_subbytes got chunk 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  while Buffer.length expected < 3 * 1024 * 1024 do
    queue_line ()
  done;
  check_int "everything queued is pending" (Buffer.length expected) (O.pending !ob);
  let rec fill total = match flush () with 0 -> total | n -> fill (total + n) in
  let first = fill 0 in
  check_bool "the unread socket took only part of the backlog" true
    (first > 0 && O.pending !ob > 0);
  while Buffer.length got < Buffer.length expected do
    read_some (Bytes.length chunk);
    ignore (flush ())
  done;
  check_int "nothing left pending" 0 (O.pending !ob);
  (* A fresh (small) buffer, so appends soon outgrow it. *)
  ob := O.create ();
  Unix.setsockopt_int writer Unix.SO_SNDBUF 4096;
  Unix.set_nonblock reader;
  let rng = Random.State.make [| 7 |] in
  (* The reader takes a little less than is queued, so the backlog creeps
     up behind a full socket. *)
  for _ = 1 to 20_000 do
    queue_line ();
    ignore (flush ());
    read_some (1 + Random.State.int rng 70)
  done;
  while O.pending !ob > 0 || Buffer.length got < Buffer.length expected do
    ignore (flush ());
    read_some (Bytes.length chunk)
  done;
  check_bool "bytes arrive exact and in order" true
    (Buffer.contents got = Buffer.contents expected);
  Unix.close writer;
  Unix.close reader

let test_line_buf_limits () =
  (* Line limit: a complete line over the cap errors even when it arrives
     in one gulp alongside the newline. *)
  let lb = Line_buf.create ~max_line_bytes:8 () in
  check_bool "long line rejected" true
    (match Line_buf.feed_string lb "0123456789ABCDEF\n" with
    | Error (Line_buf.Line_too_long 8) -> true
    | _ -> false);
  (* Poisoned: even a harmless feed keeps failing. *)
  check_bool "poisoned after error" true
    (match Line_buf.feed_string lb "ok\n" with Error _ -> true | Ok _ -> false);
  (* Short lines under the same cap are fine. *)
  let lb2 = Line_buf.create ~max_line_bytes:8 () in
  Alcotest.(check (list string)) "short lines pass" [ "PING"; "STATS" ]
    (feed_ok lb2 "PING\nSTATS\n");
  (* Buffer limit: newline-less flood trips Buffer_overflow. *)
  let lb3 = Line_buf.create ~max_buf_bytes:16 () in
  check_bool "flood rejected" true
    (match Line_buf.feed_string lb3 (String.make 64 'a') with
    | Error (Line_buf.Buffer_overflow 16) -> true
    | _ -> false);
  (* A pipelined chunk bigger than max_buf_bytes is fine as long as the
     unconsumed tail stays under the cap — limits meter buffered bytes,
     not throughput. *)
  let lb4 = Line_buf.create ~max_buf_bytes:16 () in
  let payload = String.concat "" (List.init 10 (fun i -> Printf.sprintf "line%d\n" i)) in
  check_int "big pipelined chunk ok" 10 (List.length (feed_ok lb4 payload))

let prop_line_buf_reassembly =
  (* However a '\n'-terminated payload is chunked, the reassembled lines
     are exactly the split of the payload. *)
  qtest ~count:200 "line_buf chunking invariant"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 12)))
        (list_of_size Gen.(1 -- 12) (int_range 1 7)))
    (fun (raw_lines, chunk_sizes) ->
      let lines =
        List.map
          (String.map (fun c -> if c = '\n' || c = '\r' then '.' else c))
          raw_lines
      in
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let lb = Line_buf.create () in
      let out = ref [] in
      let pos = ref 0 in
      let sizes = ref chunk_sizes in
      while !pos < String.length payload do
        let size =
          match !sizes with
          | s :: rest ->
              sizes := rest @ [ s ];
              s
          | [] -> 1
        in
        let len = min size (String.length payload - !pos) in
        (match Line_buf.feed_string lb (String.sub payload !pos len) with
        | Ok ls -> out := !out @ ls
        | Error _ -> Alcotest.fail "limits disabled: no error possible");
        pos := !pos + len
      done;
      !out = lines && Line_buf.pending_bytes lb = 0)

(* --- model serving (protocol v6) ----------------------------------------- *)

let test_parse_model_requests () =
  let req line = match P.parse_request line with Ok { P.req; _ } -> Some req | Error _ -> None in
  (match req "FEATURIZE g 'deg;wl'" with
  | Some (P.Featurize ("g", "deg;wl", P.Fm_vertex)) -> ()
  | _ -> Alcotest.fail "FEATURIZE defaults to vertex mode");
  (match req "FEATURIZE g 'deg' GRAPH" with
  | Some (P.Featurize ("g", "deg", P.Fm_graph)) -> ()
  | _ -> Alcotest.fail "FEATURIZE accepts a mode token");
  (match req "PREDICT m g 1 2" with
  | Some (P.Predict ("m", "g", [ 1; 2 ])) -> ()
  | _ -> Alcotest.fail "PREDICT parses vertices");
  check_bool "MODELS parses" true (req "MODELS" = Some P.Models);
  (match req "TRAIN m ON a,b WITH 'deg' TARGET '[1]' MODE GRAPH EPOCHS 5 LR 0.1 SEED 2 SPLIT 0.5" with
  | Some (P.Train s) ->
      check_bool "TRAIN graphs" true (s.P.t_graphs = [ "a"; "b" ]);
      check_bool "TRAIN recipe" true (s.P.t_recipe = "deg");
      check_bool "TRAIN target" true (s.P.t_target = "[1]");
      check_bool "TRAIN mode" true (s.P.t_mode = Some P.Fm_graph);
      check_bool "TRAIN options" true
        (s.P.t_epochs = Some 5 && s.P.t_lr = Some 0.1 && s.P.t_seed = Some 2
       && s.P.t_split = Some 0.5)
  | _ -> Alcotest.fail "TRAIN full grammar");
  check_bool "TRAIN without TARGET rejected" true (req "TRAIN m ON g WITH 'deg'" = None);
  check_bool "TRAIN without ON rejected" true (req "TRAIN m WITH 'deg' TARGET '[1]'" = None);
  check_bool "TRAIN bad EPOCHS rejected" true
    (req "TRAIN m ON g WITH 'deg' TARGET '[1]' EPOCHS 0" = None);
  check_bool "TRAIN bad SPLIT rejected" true
    (req "TRAIN m ON g WITH 'deg' TARGET '[1]' SPLIT 1.5" = None);
  check_bool "PREDICT bad vertex rejected" true (req "PREDICT m g notanint" = None)

let test_featurize_requests () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let feat = Server.handle_line t "FEATURIZE g 'deg;wl;hom3;label'" in
  check_bool "FEATURIZE ok" true (P.is_ok feat);
  check_bool "FEATURIZE row per vertex" true (contains ~needle:"\"rows\":10" feat);
  check_bool "FEATURIZE reports a digest" true (contains ~needle:"\"digest\":\"" feat);
  check_bool "FEATURIZE lists columns" true (contains ~needle:"\"name\":\"hom3\"" feat);
  let digest_of reply =
    let key = "\"digest\":\"" in
    let kl = String.length key and n = String.length reply in
    let rec find i =
      if i + kl > n then ""
      else if String.sub reply i kl = key then
        let stop = String.index_from reply (i + kl) '"' in
        String.sub reply (i + kl) (stop - i - kl)
      else find (i + 1)
    in
    find 0
  in
  (* Same request again: identical matrix (digest), now through the warm
     colouring cache. *)
  let again = Server.handle_line t "FEATURIZE g 'deg;wl;hom3;label'" in
  Alcotest.(check string) "digest deterministic" (digest_of feat) (digest_of again);
  check_bool "second featurize hits the coloring cache" true
    (contains ~needle:"\"cache_hits\":" again && not (contains ~needle:"\"cache_hits\":0" again));
  (* Graph mode: one summary row, fixed-width histograms legal here. *)
  let gfeat = Server.handle_line t "FEATURIZE g 'wl;kwl2' GRAPH" in
  check_bool "graph-mode FEATURIZE ok" true (P.is_ok gfeat);
  check_bool "graph-mode single row" true (contains ~needle:"\"rows\":1" gfeat)

(* Both modes of a gel: column evaluate through the plan cache: the
   vertex-mode degree (a layered plan) and the graph-mode closed edge sum
   (a join) digest as the rows they should be on petersen (3-regular,
   15 edges). *)
let test_featurize_gel_rows () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD p petersen");
  List.iter
    (fun (line, rows) ->
      let reply = Server.handle_line t line in
      check_bool (line ^ " ok") true (P.is_ok reply);
      check_bool (line ^ " digest") true
        (contains ~needle:(Printf.sprintf "\"digest\":\"%s\"" (Featurize.row_digest rows)) reply))
    [
      ("FEATURIZE p 'gel:agg_sum{x2}([1] | E(x1,x2))' VERTEX", Array.make 10 [| 3.0 |]);
      ("FEATURIZE p 'gel:agg_sum{x1,x2}([1] | E(x1,x2))' GRAPH", [| [| 30.0 |] |]);
    ]

(* The feature cache keys a recipe by its canonical spelling, so blanks
   around columns and empty sections reuse the first build. *)
let test_recipe_spellings_share_features () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD p petersen");
  let first = Server.handle_line t "FEATURIZE p 'deg;wl'" in
  let again = Server.handle_line t "FEATURIZE p ' deg ; ; wl '" in
  check_bool "both ok" true (P.is_ok first && P.is_ok again);
  let s = Cache.stats (Server.caches t) in
  check_int "one feature entry" 1 (List.assoc "feature_entries" s);
  check_int "one feature miss" 1 (List.assoc "feature_misses" s);
  check_int "one feature hit" 1 (List.assoc "feature_hits" s)

let test_train_predict_flow () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let train =
    Server.handle_line t
      "TRAIN clf ON g WITH 'deg;hom3;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 10"
  in
  check_bool "TRAIN ok" true (P.is_ok train);
  check_bool "TRAIN reports a loss history" true (contains ~needle:"\"losses\":[" train);
  check_bool "TRAIN reports metrics" true
    (contains ~needle:"\"train_metric\":" train && contains ~needle:"\"test_metric\":" train);
  check_bool "MODELS lists the model" true
    (contains ~needle:"\"name\":\"clf\"" (Server.handle_line t "MODELS"));
  let pred = Server.handle_line t "PREDICT clf g" in
  check_bool "PREDICT ok" true (P.is_ok pred);
  check_bool "PREDICT covers every vertex" true (contains ~needle:"\"n\":10" pred);
  check_bool "PREDICT fresh on the source generation" true
    (contains ~needle:"\"stale\":false" pred);
  check_bool "PREDICT vertex subset" true
    (contains ~needle:"\"n\":2" (Server.handle_line t "PREDICT clf g 3 4"));
  check_bool "PREDICT out-of-range vertex rejected" true
    (contains ~needle:"ERR_BAD_ARG" (Server.handle_line t "PREDICT clf g 99"));
  (* Deterministic retrain: same spec, same weights, same scores. *)
  ignore
    (Server.handle_line t
       "TRAIN clf ON g WITH 'deg;hom3;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 10");
  Alcotest.(check string) "retrain is deterministic" pred (Server.handle_line t "PREDICT clf g");
  (* A mutation of the source graph flips PREDICT to stale. *)
  ignore (Server.handle_line t "MUTATE g ADD_EDGES 0 2");
  check_bool "PREDICT stale after mutate" true
    (contains ~needle:"\"stale\":true" (Server.handle_line t "PREDICT clf g 0"))

let test_train_graph_mode () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD c5 cycle5");
  ignore (Server.handle_line t "LOAD c6 cycle6");
  ignore (Server.handle_line t "LOAD c7 cycle7");
  ignore (Server.handle_line t "LOAD c8 cycle8");
  let train =
    Server.handle_line t
      "TRAIN reg ON c5,c6,c7,c8 WITH 'deg;wl' TARGET 'agg_sum{x1,x2}(E(x1,x2) | [1])' MODE \
       GRAPH EPOCHS 10"
  in
  check_bool "graph-mode TRAIN ok" true (P.is_ok train);
  check_bool "graph-mode task is regress" true (contains ~needle:"\"task\":\"regress\"" train);
  check_bool "one row per graph" true (contains ~needle:"\"rows\":4" train);
  let pred = Server.handle_line t "PREDICT reg c6" in
  check_bool "graph-mode PREDICT ok" true (P.is_ok pred);
  check_bool "graph-mode PREDICT one row" true (contains ~needle:"\"n\":1" pred)

let test_model_error_codes () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  check_bool "bad recipe classified" true
    (contains ~needle:"ERR_BAD_RECIPE" (Server.handle_line t "FEATURIZE g 'bogus'"));
  check_bool "kwl in vertex mode classified" true
    (contains ~needle:"ERR_BAD_RECIPE" (Server.handle_line t "FEATURIZE g 'kwl2' VERTEX"));
  check_bool "unknown graph classified" true
    (contains ~needle:"ERR_UNKNOWN_GRAPH" (Server.handle_line t "FEATURIZE nosuch 'deg'"));
  check_bool "unknown model classified" true
    (contains ~needle:"ERR_UNKNOWN_MODEL" (Server.handle_line t "PREDICT nosuch g"));
  ignore (Server.handle_line t "LOAD h cycle5");
  check_bool "vertex-mode multi-graph TRAIN rejected" true
    (contains ~needle:"ERR_BAD_ARG"
       (Server.handle_line t
          "TRAIN v ON g,h WITH 'deg' TARGET 'agg_sum{x2}([1] | E(x1,x2))' MODE VERTEX"));
  (* A wl one-hot schema is generation-dependent by design: mutating the
     graph changes the stable class count, so PREDICT reports a schema
     mismatch rather than silently truncating features. *)
  ignore
    (Server.handle_line t
       "TRAIN wlclf ON g WITH 'wl' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 2");
  ignore (Server.handle_line t "MUTATE g ADD_EDGES 0 2");
  check_bool "wl width change is a schema mismatch" true
    (contains ~needle:"ERR_SCHEMA_MISMATCH" (Server.handle_line t "PREDICT wlclf g"))

(* A [lab<j>] past the graph's label dimension (petersen has one label)
   fails the same way through either plan, naming the largest label the
   query reads: QUERY, EXPLAIN and TRAIN TARGET answer ERR_QUERY, and a
   FEATURIZE gel: column ERR_BAD_RECIPE. *)
let test_label_beyond_dimension () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD p petersen");
  check_bool "sum plans layered" true
    (contains ~needle:"\"plan\":\"layered\""
       (Server.handle_line t "EXPLAIN p 'agg_sum{x2}(lab0(x2) | E(x1,x2))'"));
  check_bool "max plans direct" true
    (contains ~needle:"\"plan\":\"direct\""
       (Server.handle_line t "EXPLAIN p 'agg_max{x2}(lab0(x2) | E(x1,x2))'"));
  let expected j =
    P.err_line
      (P.error ~code:"ERR_QUERY" (Printf.sprintf "type error: lab%d: graph has label dimension 1" j))
  in
  List.iter
    (fun (name, line, j) ->
      Alcotest.(check string) name (expected j) (Server.handle_line t line))
    [
      ("layered sum", "QUERY p 'agg_sum{x2}(lab3(x2) | E(x1,x2))'", 3);
      ("join max", "QUERY p 'agg_max{x2}(lab3(x2) | E(x1,x2))'", 3);
      ("layered EXPLAIN", "EXPLAIN p 'agg_sum{x2}(lab3(x2) | E(x1,x2))'", 3);
      ("layered, two labels", "QUERY p 'agg_sum{x2}(product(lab3(x2), lab5(x1)) | E(x1,x2))'", 5);
      ("join, two labels", "QUERY p 'agg_max{x2}(product(lab3(x2), lab5(x1)) | E(x1,x2))'", 5);
    ];
  let train =
    Server.handle_line t "TRAIN m ON p WITH 'deg' TARGET 'agg_sum{x2}(lab3(x2) | E(x1,x2))' MODE VERTEX"
  in
  check_bool "TRAIN TARGET is a query error" true
    (contains ~needle:"ERR_QUERY" train
    && contains ~needle:"TARGET: type error: lab3: graph has label dimension 1" train);
  List.iter
    (fun line ->
      let reply = Server.handle_line t line in
      check_bool line true
        (contains ~needle:"ERR_BAD_RECIPE" reply
        && contains ~needle:"gel: type error: lab3: graph has label dimension 1" reply))
    [
      "FEATURIZE p 'gel:agg_sum{x2}(lab3(x2) | E(x1,x2))' VERTEX";
      "FEATURIZE p 'gel:agg_sum{x1}(lab3(x1) | 1[x1=x1])' GRAPH";
    ];
  check_bool "lab0 still answers" true
    (P.is_ok (Server.handle_line t "QUERY p 'agg_sum{x2}(lab0(x2) | E(x1,x2))'"))

let test_model_snapshot_roundtrip () =
  with_temp_snapshot @@ fun path ->
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  ignore
    (Server.handle_line t
       "TRAIN clf ON g WITH 'deg;hom3;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 5");
  let pred1 = Server.handle_line t "PREDICT clf g" in
  let save = Server.handle_line t (Printf.sprintf "SAVE %s" path) in
  check_bool "SAVE ok" true (P.is_ok save);
  check_bool "SAVE counts the model" true (contains ~needle:"\"models\":1" save);
  let t2 = make_server () in
  let restore = Server.handle_line t2 (Printf.sprintf "RESTORE %s" path) in
  check_bool "RESTORE ok" true (P.is_ok restore);
  check_bool "RESTORE counts the model" true (contains ~needle:"\"models\":1" restore);
  (* The restored registry answers PREDICT byte-identically: weights,
     ordering, generations and staleness all come back as saved. *)
  Alcotest.(check string) "PREDICT byte-identical after restore" pred1
    (Server.handle_line t2 "PREDICT clf g");
  (* A model already stale at save time stays stale after restore: its
     source keeps the older generation, and the graph binds at the saved
     one. *)
  ignore (Server.handle_line t "MUTATE g SET_LABEL 0 2.0");
  check_bool "stale before save" true
    (contains ~needle:"\"stale\":true" (Server.handle_line t "PREDICT clf g 0"));
  ignore (Server.handle_line t (Printf.sprintf "SAVE %s" path));
  let t3 = make_server () in
  ignore (Server.handle_line t3 (Printf.sprintf "RESTORE %s" path));
  check_bool "stale survives restore" true
    (contains ~needle:"\"stale\":true" (Server.handle_line t3 "PREDICT clf g 0"))

(* A model trained through a spelling of a spec records the binding the
   spelling resolved to, so SAVE writes a source the file binds and a
   fresh server answers as the first life did. *)
let test_model_spelled_source_roundtrip () =
  with_temp_snapshot @@ fun path ->
  let t = make_server () in
  let train =
    Server.handle_line t
      "TRAIN m ON \"cycle3 + path4\" WITH 'deg;hom3' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 3"
  in
  check_bool "TRAIN ok" true (P.is_ok train);
  check_bool "the source is the canonical binding" true
    (contains ~needle:"\"graph\":\"cycle3+path4\"" train);
  let pred = Server.handle_line t "PREDICT m \"cycle3 + path4\"" in
  check_bool "PREDICT through the spelling is fresh and seen" true
    (contains ~needle:"\"stale\":false,\"unseen\":false" pred);
  let models = Server.handle_line t "MODELS" in
  check_bool "SAVE ok" true (P.is_ok (Server.handle_line t (Printf.sprintf "SAVE %s" path)));
  let t2 = make_server () in
  check_bool "RESTORE ok" true
    (P.is_ok (Server.handle_line t2 (Printf.sprintf "RESTORE %s" path)));
  Alcotest.(check string) "PREDICT byte-identical after restore" pred
    (Server.handle_line t2 "PREDICT m \"cycle3 + path4\"");
  Alcotest.(check string) "MODELS byte-identical after restore" models
    (Server.handle_line t2 "MODELS")

let test_predict_unseen_flag () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  ignore (Server.handle_line t "LOAD h cycle5");
  ignore
    (Server.handle_line t
       "TRAIN clf ON g WITH 'deg;hom3;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 5");
  let seen = Server.handle_line t "PREDICT clf g" in
  check_bool "source graph is seen" true (contains ~needle:"\"unseen\":false" seen);
  (* A graph the model never trained on must not look *fresher* than a
     mutated source: it is flagged unseen, with staleness inapplicable. *)
  let unseen = Server.handle_line t "PREDICT clf h" in
  check_bool "PREDICT on unseen graph ok" true (P.is_ok unseen);
  check_bool "unseen graph flagged" true (contains ~needle:"\"unseen\":true" unseen);
  check_bool "unseen is not reported stale" true (contains ~needle:"\"stale\":false" unseen)

let test_target_dim_rejected () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let reply = Server.handle_line t "TRAIN bad ON g WITH 'deg' TARGET '[1;2]'" in
  check_bool "2-dim TARGET rejected" true (not (P.is_ok reply));
  check_bool "classified as ERR_QUERY" true (contains ~needle:"ERR_QUERY" reply);
  check_bool "message names the dimension" true (contains ~needle:"dimension 2" reply);
  check_bool "model was not registered" true
    (not (contains ~needle:"\"name\":\"bad\"" (Server.handle_line t "MODELS")))

let test_histogram_overflow_folded () =
  (* path80 refines to ~40 stable WL classes — more than hist_width — so
     the fixed-width graph-mode histogram must fold the tail into the
     final bucket instead of dropping its mass. *)
  let module Featurize = Glql_server.Featurize in
  let g = match Registry.graph_of_spec "path80" with Ok g -> g | Error e -> failwith e in
  let classes =
    let result = Cr.run g in
    1 + Array.fold_left max (-1) (List.hd (Cr.stable_colors result))
  in
  check_bool "test graph exceeds hist_width" true (classes > 32);
  let cache = Cache.create ~plan_capacity:4 ~coloring_capacity:4 () in
  let cols = match Featurize.parse_recipe "wl" with Ok c -> c | Error _ -> assert false in
  match Featurize.build ~cache ~graph_name:"p" ~gen:0 P.Fm_graph g cols with
  | Error (code, msg) -> Alcotest.failf "graph-mode build failed: %s (%s)" msg code
  | Ok b ->
      check_int "fixed histogram width" 32 b.Featurize.b_width;
      let row = b.Featurize.b_rows.(0) in
      let total = Array.fold_left ( +. ) 0.0 row in
      Alcotest.(check (float 1e-9)) "histogram conserves vertex count" 80.0 total;
      check_bool "overflow folded into the final bucket" true (row.(31) > row.(30))

let test_predict_batch_matches_loop () =
  let t = make_server () in
  List.iter (fun l -> ignore (Server.handle_line t l))
    [ "LOAD c5 cycle5"; "LOAD c6 cycle6"; "LOAD c7 cycle7"; "LOAD c8 cycle8" ];
  ignore
    (Server.handle_line t
       "TRAIN reg ON c5,c6,c7,c8 WITH 'deg;wl' TARGET 'agg_sum{x1,x2}(E(x1,x2) | [1])' MODE \
        GRAPH EPOCHS 10");
  let batched = Server.handle_line t "PREDICT reg ON c5,c6,c7" in
  check_bool "batched PREDICT ok" true (P.is_ok batched);
  check_bool "batch counts its graphs" true (contains ~needle:"\"graphs\":3" batched);
  (* Each batch item is byte-identical to the single-PREDICT payload. *)
  List.iter
    (fun g ->
      let single = Server.handle_line t (Printf.sprintf "PREDICT reg %s" g) in
      check_bool "single PREDICT ok" true (P.is_ok single);
      let payload = String.sub single 3 (String.length single - 3) in
      check_bool (Printf.sprintf "batch embeds %s payload verbatim" g) true
        (contains ~needle:payload batched))
    [ "c5"; "c6"; "c7" ];
  (* A failing graph fails the whole batch with its classified error,
     exactly as the first failing iteration of a client-side loop would. *)
  let partial = Server.handle_line t "PREDICT reg ON c5,nosuch,c7" in
  check_bool "batch is atomic on errors" true
    (contains ~needle:"ERR_UNKNOWN_GRAPH" partial);
  check_bool "batched grammar rejects empty list" true
    (contains ~needle:"ERR_PARSE" (Server.handle_line t "PREDICT reg ON ,,"))

let test_feature_cache_hits () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  ignore
    (Server.handle_line t
       "TRAIN clf ON g WITH 'deg;hom3;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 5");
  let feature_stat key = List.assoc key (Cache.stats (Server.caches t)) in
  (* TRAIN built and stored the matrix; the first PREDICT on the
     unchanged generation comes back whole from the feature cache. *)
  let misses0 = feature_stat "feature_misses" in
  let hits0 = feature_stat "feature_hits" in
  ignore (Server.handle_line t "PREDICT clf g");
  ignore (Server.handle_line t "PREDICT clf g");
  check_int "warm PREDICTs add no feature misses" misses0 (feature_stat "feature_misses");
  check_int "each warm PREDICT is a feature hit" (hits0 + 2) (feature_stat "feature_hits");
  check_bool "STATS surfaces the feature cache" true
    (let stats = Server.handle_line t "STATS" in
     contains ~needle:"\"feature_hits\":" stats
     && contains ~needle:"\"feature_bytes\":" stats
     && contains ~needle:"\"feature_byte_budget\":" stats)

let test_mutate_invalidates_feature_cache () =
  let t = make_server () in
  ignore (Server.handle_line t "LOAD g petersen");
  let feature_stat key = List.assoc key (Cache.stats (Server.caches t)) in
  (* 'deg' consults no column cache, so cache_hits in the reply isolates
     the feature-matrix cache: cold = 0 hits, warm = exactly 1. *)
  check_bool "first FEATURIZE is cold" true
    (contains ~needle:"\"cache_hits\":0" (Server.handle_line t "FEATURIZE g 'deg'"));
  check_int "matrix cached" 1 (feature_stat "feature_entries");
  check_bool "second FEATURIZE is warm" true
    (contains ~needle:"\"cache_hits\":1" (Server.handle_line t "FEATURIZE g 'deg'"));
  ignore (Server.handle_line t "MUTATE g ADD_EDGES 0 2");
  check_int "mutation evicts the generation's matrix" 0 (feature_stat "feature_entries");
  let after = Server.handle_line t "FEATURIZE g 'deg'" in
  check_bool "post-MUTATE FEATURIZE is cold again" true
    (contains ~needle:"\"cache_hits\":0" after)

let suite =
  ( "server",
    [
      case "cache key: alpha equivalence" test_key_alpha_equivalent;
      case "cache key: free-var renaming" test_key_free_var_renaming;
      case "cache key: symmetric edge args" test_key_symmetric_edge;
      case "cache key: binder reordering" test_key_binder_reordering;
      case "cache key: distinct queries differ" test_key_distinct_queries;
      case "protocol tokenizer" test_tokenize;
      case "protocol requests" test_parse_request_ok;
      case "protocol TRACE option" test_parse_request_trace_option;
      case "protocol MUTATE grammar" test_parse_mutate;
      case "protocol malformed lines" test_parse_request_malformed;
      case "protocol json rendering" test_json_rendering;
      case "registry specs" test_registry_specs;
      case "registry find and register" test_registry_find_caches;
      case "registry spec size limits" test_registry_spec_limits;
      case "registry generations" test_registry_generations;
      case "registry mutate batches" test_registry_mutate;
      case "registry canonical spec whitespace" test_registry_canonical_spec;
      case "handle_line: query flow and plan cache" test_handle_line_flow;
      case "handle_line: layered replies pinned by digest" test_layered_reply_digests;
      case "handle_line: direct replies pinned by digest" test_direct_reply_digests;
      case "handle_line: GEL deadline inside evaluation" test_gel_deadline_inside_eval;
      case "handle_line: layered deadline inside evaluation" test_layered_deadline_inside_eval;
      case "handle_line: direct max MPNN on grid100x100" test_direct_max_mpnn_grid100;
      case "handle_line: coloring cache" test_handle_line_wl_cache;
      case "handle_line: reload serves fresh coloring" test_reload_serves_fresh_coloring;
      case "handle_line: cell guard overflow" test_cell_guard_overflow;
      case "handle_line: errors and stats" test_handle_line_errors;
      case "handle_line: EXPLAIN stage summary" test_handle_line_explain;
      case "handle_line: EXPLAIN layered on grid100x100" test_explain_layered_grid100;
      case "handle_line: TRACE option" test_handle_line_trace_option;
      case "protocol version reporting" test_protocol_version_reporting;
      case "metrics ring wrap percentiles" test_metrics_ring_wrap;
      prop_percentiles_match_sorting;
      prop_stage_percentiles_match_sorting;
      case "persistence: SAVE/RESTORE round trip" test_save_restore_roundtrip;
      case "persistence: malformed snapshot leaves state" test_restore_malformed_leaves_state;
      case "persistence: reload after restore stays fresh" test_restore_then_reload_stays_fresh;
      case "cache clear" test_cache_clear_resets_entries;
      case "error codes are structured" test_error_codes;
      case "HOM cost guard" test_hom_cost_guard;
      case "deadline cancels kernels" test_deadline_cancels_kernels;
      case "handle_lines: batch coalescing" test_batch_coalescing;
      case "k-WL deadline inside a round" test_kwl_deadline_inside_round;
      case "handle_line: MUTATE batch semantics" test_handle_line_mutate;
      case "handle_line: MUTATE incremental recolour" test_handle_line_mutate_incremental;
      case "cache: mutation seed lifecycle" test_cache_seed_lifecycle;
      case "cache: seeds evicted before live entries" test_cache_seed_evicted_first;
      case "protocol model-serving grammar" test_parse_model_requests;
      case "handle_line: FEATURIZE recipes" test_featurize_requests;
      case "handle_line: TRAIN/PREDICT flow" test_train_predict_flow;
      case "handle_line: graph-mode TRAIN" test_train_graph_mode;
      case "model-serving error codes" test_model_error_codes;
      case "lab<j> beyond the label dimension" test_label_beyond_dimension;
      case "FEATURIZE gel: rows in both modes" test_featurize_gel_rows;
      case "feature cache: recipe spellings share an entry" test_recipe_spellings_share_features;
      case "eval_plan: lab<j> error from either plan" test_eval_plan_label_error;
      case "plan cache: seed_plan errors match plan" test_seed_plan_errors_match_plan;
      case "binder type error is ERR_QUERY" test_binder_type_error_is_query_error;
      case "plan cache: a seeded plan is a hit" test_seeded_plan_is_a_hit;
      case "featurize cell budget pre-empts materialization" test_featurize_cell_budget_preempts;
      case "TRAIN honours the request deadline" test_train_honours_deadline;
      case "persistence: model registry round trip" test_model_snapshot_roundtrip;
      case "persistence: model trained through a spelled spec" test_model_spelled_source_roundtrip;
      case "persistence: MUTATE after restore matches the first life"
        test_restore_then_mutate_matches_first_life;
      case "persistence: restore onto a live binding" test_restore_onto_live_binding;
      case "PREDICT flags unseen graphs" test_predict_unseen_flag;
      case "TRAIN rejects multi-dimensional TARGET" test_target_dim_rejected;
      case "graph-mode histogram folds overflow" test_histogram_overflow_folded;
      case "batched PREDICT matches the per-graph loop" test_predict_batch_matches_loop;
      case "feature cache: warm PREDICT hits" test_feature_cache_hits;
      case "feature cache: MUTATE invalidates" test_mutate_invalidates_feature_cache;
      prop_parse_request_total;
      case "line_buf framing" test_line_buf_framing;
      case "line_buf limits" test_line_buf_limits;
      case "conn_loop out buffer: partial writes" test_outbuf_partial_writes;
      prop_line_buf_reassembly;
    ] )
