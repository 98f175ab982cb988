(* Tests for the slide-71 methods: distances/ego nets, subgraph policies,
   ensembles, and order-2 (invariant) graph networks. *)

open Helpers
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Dist = Glql_graph.Dist
module Cr = Glql_wl.Color_refinement
module Policy = Glql_subgraph.Policy
module Ensemble = Glql_subgraph.Ensemble
module Ign = Glql_gnn.Ign
module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Compile_gnn = Glql_gel.Compile_gnn

(* --- distances ------------------------------------------------------------- *)

let test_bfs () =
  let g = Generators.path 5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] (Dist.bfs g 0);
  let disconnected = Graph.disjoint_union (Generators.path 2) (Generators.path 2) in
  Alcotest.(check (array int)) "unreachable = -1" [| 0; 1; -1; -1 |] (Dist.bfs disconnected 0)

(* The diameter is the largest BFS distance over all sources. *)
let test_diameter () =
  let diameter g =
    List.fold_left max 0
      (List.init (Graph.n_vertices g) (fun v -> Array.fold_left max 0 (Dist.bfs g v)))
  in
  check_int "petersen diameter" 2 (diameter (Generators.petersen ()));
  check_int "path diameter" 4 (diameter (Generators.path 5));
  check_int "complete diameter" 1 (diameter (Generators.complete 4))

let test_ball_and_ego () =
  let g = Generators.path 5 in
  Alcotest.(check (array int)) "radius-1 ball" [| 1; 2; 3 |] (Dist.ball g ~center:2 ~radius:1);
  let sub, c = Dist.ego_net g ~center:2 ~radius:1 in
  check_int "ego size" 3 (Graph.n_vertices sub);
  check_int "centre index" 1 c;
  check_int "ego edges" 2 (Graph.n_edges sub)

(* --- policies ---------------------------------------------------------------- *)

let test_policy_mark () =
  let g = Generators.cycle 4 in
  let g' = Policy.apply Policy.Mark g 2 in
  check_int "label dim grows" 2 (Graph.label_dim g');
  check_float "marked vertex" 1.0 (Graph.label g' 2).(1);
  check_float "other vertex" 0.0 (Graph.label g' 0).(1);
  check_int "same structure" (Graph.n_edges g) (Graph.n_edges g')

let test_policy_delete () =
  let g = Generators.star 3 in
  let no_centre = Policy.apply Policy.Delete g 0 in
  check_int "vertices" 3 (Graph.n_vertices no_centre);
  check_int "edges" 0 (Graph.n_edges no_centre)

let test_policy_ego () =
  let g = Generators.path 5 in
  let sub = Policy.apply (Policy.Ego 1) g 2 in
  check_int "ego vertices" 3 (Graph.n_vertices sub);
  check_int "mark column" 2 (Graph.label_dim sub)

let test_transforms_count () =
  let g = Generators.cycle 5 in
  check_int "one per vertex" 5 (List.length (Policy.transforms Policy.Mark g))

(* --- ensembles ---------------------------------------------------------------- *)

let c6_vs_2c3 () =
  (Generators.cycle 6, Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3))

let policies = [ ("mark", Policy.Mark); ("delete", Policy.Delete); ("ego 2", Policy.Ego 2) ]

let test_ensemble_breaks_cr_pairs () =
  let c6, c33 = c6_vs_2c3 () in
  check_bool "plain CR fooled" true (Cr.equivalent_graphs c6 c33);
  List.iter
    (fun (name, policy) ->
      check_bool (name ^ " separates") false (Ensemble.equivalent policy c6 c33))
    policies

let test_ensemble_fooled_by_srg () =
  let rook = Generators.rook_4x4 () and shri = Generators.shrikhande () in
  (* Subgraph-1 methods are bounded by 2-FWL, which cannot split this pair. *)
  List.iter
    (fun (name, policy) -> check_bool (name ^ " fooled") true (Ensemble.equivalent policy rook shri))
    policies

let prop_ensemble_invariant =
  qtest ~count:15 "ensemble invariant under isomorphism" (graph_arbitrary ~min_n:2 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      List.for_all (fun policy -> Ensemble.equivalent policy g h)
        [ Policy.Mark; Policy.Delete; Policy.Ego 1 ])

let prop_gnn_ensemble_bounded_by_cr_ensemble =
  qtest ~count:10 "random-weight ensemble bounded by CR ensemble"
    (graph_arbitrary ~min_n:2 ~max_n:6 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      let policy = Policy.Mark in
      if not (Ensemble.equivalent policy g h) then true
      else begin
        (* CR-ensemble-equivalent: random-weight GNN ensembles must agree. *)
        let spec =
          Compile_gnn.random_gnn101 (Rng.create (seed + 5))
            ~in_dim:(Ensemble.base_in_dim policy g) ~width:6 ~depth:4 ~out_dim:6
        in
        Vec.linf_dist (Ensemble.gnn_embedding spec policy g) (Ensemble.gnn_embedding spec policy h)
        < 1e-8
      end)

(* --- 2-IGN / PPGN ---------------------------------------------------------------- *)

let test_basis_ops () =
  let x = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  check_bool "op0 identity" true (Mat.equal_approx (Ign.basis_op 0 x) x);
  check_bool "op1 transpose" true (Mat.equal_approx (Ign.basis_op 1 x) (Mat.transpose x));
  (* op12: total sum / n^2 broadcast = 10/4. *)
  check_float "op12 broadcast" 2.5 (Mat.get (Ign.basis_op 12 x) 0 1);
  (* op13: trace / n = 5/2 broadcast. *)
  check_float "op13 trace" 2.5 (Mat.get (Ign.basis_op 13 x) 1 0);
  (* op2: diagonal restriction. *)
  check_float "op2 off-diagonal" 0.0 (Mat.get (Ign.basis_op 2 x) 0 1);
  check_float "op2 diagonal" 4.0 (Mat.get (Ign.basis_op 2 x) 1 1)

let test_encode () =
  let g = Graph.with_one_hot_labels (Generators.path 2) [| 0; 1 |] ~n_colors:2 in
  let channels = Ign.encode g in
  check_int "channels" 3 (Array.length channels);
  check_float "adjacency" 1.0 (Mat.get channels.(0) 0 1);
  check_float "diag label" 1.0 (Mat.get channels.(1) 0 0);
  check_float "off-diag label" 0.0 (Mat.get channels.(1) 0 1)

let prop_ign_invariant =
  qtest ~count:15 "2-IGN invariant under isomorphism" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      let m = Ign.random (Rng.create 9) ~label_dim:3 ~width:4 ~depth:2 ~out_dim:4 in
      Vec.linf_dist (Ign.graph_embedding m g) (Ign.graph_embedding m h) < 1e-9)

let prop_ppgn_invariant =
  qtest ~count:10 "PPGN invariant under isomorphism" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      let m = Ign.random_ppgn (Rng.create 10) ~label_dim:3 ~width:4 ~depth:2 ~out_dim:4 in
      Vec.linf_dist (Ign.ppgn_graph_embedding m g) (Ign.ppgn_graph_embedding m h) < 1e-9)

let test_ppgn_separates_triangles () =
  let c6, c33 = c6_vs_2c3 () in
  let separated =
    List.exists
      (fun i ->
        let m = Ign.random_ppgn (Rng.create (100 + i)) ~label_dim:1 ~width:6 ~depth:3 ~out_dim:6 in
        Vec.linf_dist (Ign.ppgn_graph_embedding m c6) (Ign.ppgn_graph_embedding m c33) > 1e-9)
      [ 0; 1; 2 ]
  in
  check_bool "matrix products see triangles" true separated

let test_ppgn_fooled_by_srg () =
  (* rook vs Shrikhande is 2-FWL-equivalent; PPGN must not separate. *)
  let rook = Generators.rook_4x4 () and shri = Generators.shrikhande () in
  let m = Ign.random_ppgn (Rng.create 200) ~label_dim:1 ~width:6 ~depth:3 ~out_dim:6 in
  check_bool "fooled" true
    (Vec.linf_dist (Ign.ppgn_graph_embedding m rook) (Ign.ppgn_graph_embedding m shri) < 1e-9)

let test_ign_fooled_like_cr () =
  (* Linear 2-IGNs track colour refinement: fooled by C6 vs C3+C3. *)
  let c6, c33 = c6_vs_2c3 () in
  let m = Ign.random (Rng.create 300) ~label_dim:1 ~width:6 ~depth:3 ~out_dim:6 in
  check_bool "fooled" true
    (Vec.linf_dist (Ign.graph_embedding m c6) (Ign.graph_embedding m c33) < 1e-9)


(* --- set-based 2-GNNs -------------------------------------------------------- *)

module Kset = Glql_subgraph.Kset

let test_two_set_graph_shape () =
  let g = Generators.cycle 4 in
  let d = Kset.two_set_graph g in
  (* C(4,2) = 6 pair-vertices; each pair {u,v} meets 2(n-2) = 4 others. *)
  check_int "pair vertices" 6 (Graph.n_vertices d);
  Alcotest.(check (list (pair int int))) "4-regular derived graph" [ (4, 6) ]
    (Graph.degree_histogram d);
  (* Labels: sum + product of endpoint labels + adjacency bit. *)
  check_int "label dim" 3 (Graph.label_dim d)

let test_two_set_labels_distinguish_adjacency () =
  let g = Generators.path 3 in
  let d = Kset.two_set_graph g in
  (* Pairs in lexicographic order: (0,1) adjacent, (0,2) not, (1,2) adjacent. *)
  check_float "adjacent pair bit" 1.0 (Graph.label d 0).(2);
  check_float "non-adjacent pair bit" 0.0 (Graph.label d 1).(2)

let prop_kset_invariant =
  qtest ~count:15 "set-2-GNN power invariant under isomorphism"
    (graph_arbitrary ~min_n:2 ~max_n:7 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      Kset.equivalent g h)

let test_kset_measured_power () =
  (* Measured in E14: the *set* variant tracks colour refinement — it is
     fooled by the classic CR-equivalent pairs (the weakness motivating
     ordered-subgraph aggregation, slide 71) ... *)
  let c6, c33 = c6_vs_2c3 () in
  check_bool "fooled by C6 vs 2C3" true (Kset.equivalent c6 c33);
  check_bool "fooled by SRG pair" true
    (Kset.equivalent (Generators.rook_4x4 ()) (Generators.shrikhande ()));
  (* ... but it still separates what CR separates. *)
  check_bool "separates P4 vs star3" false
    (Kset.equivalent (Generators.path 4) (unlabel (Generators.star 3)))

let suite =
  ( "subgraph",
    [
      case "bfs" test_bfs;
      case "diameter" test_diameter;
      case "ball and ego" test_ball_and_ego;
      case "policy mark" test_policy_mark;
      case "policy delete" test_policy_delete;
      case "policy ego" test_policy_ego;
      case "transforms count" test_transforms_count;
      case "ensemble breaks CR pairs" test_ensemble_breaks_cr_pairs;
      case "ensemble fooled by SRG" test_ensemble_fooled_by_srg;
      prop_ensemble_invariant;
      prop_gnn_ensemble_bounded_by_cr_ensemble;
      case "ign basis ops" test_basis_ops;
      case "ign encode" test_encode;
      prop_ign_invariant;
      prop_ppgn_invariant;
      case "ppgn separates triangles" test_ppgn_separates_triangles;
      case "ppgn fooled by SRG" test_ppgn_fooled_by_srg;
      case "2-IGN fooled like CR" test_ign_fooled_like_cr;
      case "2-set graph shape" test_two_set_graph_shape;
      case "2-set labels" test_two_set_labels_distinguish_adjacency;
      prop_kset_invariant;
      case "set-2-GNN measured power" test_kset_measured_power;
    ] )
