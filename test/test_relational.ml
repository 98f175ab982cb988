(* Tests for glql_relational: typed graphs, relational colour refinement,
   R-GCN models. *)

open Helpers
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Cr = Glql_wl.Color_refinement
module Rgraph = Glql_relational.Rgraph
module Rwl = Glql_relational.Rwl
module Vec = Glql_tensor.Vec

let typed_c4 types =
  let edges = List.mapi (fun i r -> (r, i, (i + 1) mod 4)) types in
  Rgraph.create ~n:4 ~n_relations:2 ~edges ~labels:(Array.make 4 [| 1.0 |])

let test_rgraph_basics () =
  let g = typed_c4 [ 0; 1; 0; 1 ] in
  check_int "vertices" 4 (Rgraph.n_vertices g);
  check_int "relations" 2 (Rgraph.n_relations g);
  Alcotest.(check (array int)) "relation-0 neighbours of 0" [| 1 |]
    (Rgraph.neighbors g ~relation:0 0);
  Alcotest.(check (array int)) "relation-1 neighbours of 0" [| 3 |]
    (Rgraph.neighbors g ~relation:1 0)

let test_union_graph () =
  let g = typed_c4 [ 0; 1; 0; 1 ] in
  let u = Rgraph.union_graph g in
  check_int "union edges" 4 (Graph.n_edges u);
  check_bool "union is C4" true (Glql_graph.Iso.are_isomorphic u (Generators.cycle 4))

let test_of_graph_roundtrip () =
  let g = Generators.petersen () in
  let r = Rgraph.of_graph g in
  check_int "one relation" 1 (Rgraph.n_relations r);
  check_bool "union gives back structure" true (Graph.equal_structure g (Rgraph.union_graph r))

let test_relational_cr_sees_types () =
  let alternating = typed_c4 [ 0; 1; 0; 1 ] in
  let blocked = typed_c4 [ 0; 0; 1; 1 ] in
  check_bool "union CR fooled" true
    (Cr.equivalent_graphs (Rgraph.union_graph alternating) (Rgraph.union_graph blocked));
  check_bool "relational CR separates" false (Rwl.equivalent_graphs alternating blocked)

let test_relational_cr_on_single_relation () =
  (* With one relation, relational CR agrees with plain CR. *)
  let c6 = Generators.cycle 6 in
  let c33 = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  check_bool "matches plain CR (equiv pair)" true
    (Rwl.equivalent_graphs (Rgraph.of_graph c6) (Rgraph.of_graph c33));
  check_bool "matches plain CR (distinct pair)" false
    (Rwl.equivalent_graphs (Rgraph.of_graph (Generators.path 4))
       (Rgraph.of_graph (unlabel (Generators.star 3))))

let prop_relational_cr_invariant =
  qtest ~count:20 "relational CR invariant under isomorphism"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, n) ->
      let g = Rgraph.random (Rng.create seed) ~n ~n_relations:2 ~p:0.5 in
      let perm = Graph.random_permutation (Rng.create (seed + 1)) n in
      Rwl.equivalent_graphs g (Rgraph.permute g perm))

let prop_rgnn_invariant =
  qtest ~count:15 "R-GNN invariant under isomorphism"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let g = Rgraph.random (Rng.create seed) ~n ~n_relations:2 ~p:0.5 in
      let perm = Graph.random_permutation (Rng.create (seed + 1)) n in
      let m = Rwl.random_model (Rng.create 5) ~label_dim:1 ~n_relations:2 ~width:6 ~depth:3 ~out_dim:4 in
      Vec.linf_dist (Rwl.graph_embedding m g) (Rwl.graph_embedding m (Rgraph.permute g perm)) < 1e-9)

let prop_rgnn_bounded_by_relational_cr =
  qtest ~count:15 "R-GNN bounded by relational CR"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let g = Rgraph.random (Rng.create seed) ~n ~n_relations:2 ~p:0.5 in
      let h = Rgraph.random (Rng.create (seed + 1)) ~n ~n_relations:2 ~p:0.5 in
      if not (Rwl.equivalent_graphs g h) then true
      else begin
        let m = Rwl.random_model (Rng.create 7) ~label_dim:1 ~n_relations:2 ~width:6 ~depth:4 ~out_dim:4 in
        Vec.linf_dist (Rwl.graph_embedding m g) (Rwl.graph_embedding m h) < 1e-8
      end)

let test_rgnn_uses_types () =
  let alternating = typed_c4 [ 0; 1; 0; 1 ] in
  let blocked = typed_c4 [ 0; 0; 1; 1 ] in
  let separated =
    List.exists
      (fun i ->
        let m =
          Rwl.random_model (Rng.create (50 + i)) ~label_dim:1 ~n_relations:2 ~width:6 ~depth:3
            ~out_dim:6
        in
        Vec.linf_dist (Rwl.graph_embedding m alternating) (Rwl.graph_embedding m blocked) > 1e-9)
      [ 0; 1; 2 ]
  in
  check_bool "random R-GNN separates typed pair" true separated

let suite =
  ( "relational",
    [
      case "rgraph basics" test_rgraph_basics;
      case "union graph" test_union_graph;
      case "of_graph roundtrip" test_of_graph_roundtrip;
      case "relational CR sees types" test_relational_cr_sees_types;
      case "single relation = plain CR" test_relational_cr_on_single_relation;
      prop_relational_cr_invariant;
      prop_rgnn_invariant;
      prop_rgnn_bounded_by_relational_cr;
      case "R-GNN uses types" test_rgnn_uses_types;
    ] )
