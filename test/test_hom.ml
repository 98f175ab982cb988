(* Tests for glql_hom: tree enumeration and homomorphism counting. *)

open Helpers
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Tree = Glql_hom.Tree
module Count = Glql_hom.Count
module Cr = Glql_wl.Color_refinement

let test_rooted_tree_counts () =
  (* OEIS A000081. *)
  List.iteri
    (fun i expected -> check_int (Printf.sprintf "rooted(%d)" (i + 1)) expected
        (List.length (Tree.rooted_trees (i + 1))))
    [ 1; 1; 2; 4; 9; 20; 48; 115; 286 ]

let test_free_tree_counts () =
  (* OEIS A000055. *)
  List.iteri
    (fun i expected -> check_int (Printf.sprintf "free(%d)" (i + 1)) expected
        (List.length (Tree.free_trees (i + 1))))
    [ 1; 1; 1; 2; 3; 6; 11; 23; 47 ]

let test_free_trees_are_trees () =
  List.iter
    (fun t -> check_bool "is a tree" true (Tree.is_tree t))
    (Tree.all_free_trees_up_to 8)

let test_free_trees_distinct () =
  let canons = List.map Tree.canon_free (Tree.free_trees 8) in
  check_int "pairwise distinct" (List.length canons)
    (List.length (List.sort_uniq compare canons))

let test_centroids () =
  Alcotest.(check (list int)) "path odd" [ 2 ] (Tree.centroids (Generators.path 5));
  Alcotest.(check (list int)) "path even" [ 1; 2 ] (Tree.centroids (Generators.path 4));
  Alcotest.(check (list int)) "star centre" [ 0 ] (Tree.centroids (Generators.star 4))

let test_canon_free_invariant () =
  let p = Generators.path 5 in
  let p' = Graph.permute p [| 4; 2; 0; 1; 3 |] in
  Alcotest.(check string) "permutation invariant" (Tree.canon_free p) (Tree.canon_free p')

let test_is_tree () =
  check_bool "path" true (Tree.is_tree (Generators.path 4));
  check_bool "cycle" false (Tree.is_tree (Generators.cycle 4));
  check_bool "forest" false
    (Tree.is_tree (Graph.disjoint_union (Generators.path 2) (Generators.path 2)))

(* --- hom counting ---------------------------------------------------------- *)

let test_hom_known_values () =
  let p2 = Generators.path 2 and p3 = Generators.path 3 in
  let k4 = Generators.complete 4 in
  check_float "hom(P2, G) = 2|E|" 12.0 (Count.hom p2 k4);
  check_float "hom(P3, K4)" 36.0 (Count.hom p3 k4);
  (* Single vertex pattern counts vertices. *)
  check_float "hom(K1, K4)" 4.0 (Count.hom (Generators.complete 1) k4);
  (* Edgeless target kills edge patterns. *)
  check_float "hom into edgeless" 0.0 (Count.hom p2 (Graph.unlabelled ~n:3 ~edges:[]))

let test_hom_cycles () =
  (* hom(C3, C3) = 6 (automorphisms, homs of C3 into C3 are exactly autos). *)
  check_float "hom(C3, C3)" 6.0 (Count.hom (Generators.cycle 3) (Generators.cycle 3));
  (* hom(C4, K3): closed walks of length 4 in K3 = trace(A^4) = 18. *)
  check_float "hom(C4, K3)" 18.0 (Count.hom (Generators.cycle 4) (Generators.complete 3))

let prop_tree_dp_equals_bruteforce =
  qtest ~count:30 "tree DP = brute force" (graph_arbitrary ~min_n:1 ~max_n:7 ()) (fun input ->
      let g = graph_of input in
      List.for_all
        (fun t -> Count.hom_tree t g = Count.hom_bruteforce t g)
        (Tree.all_free_trees_up_to 5))

let prop_hom_disjoint_union_additive =
  qtest ~count:25 "hom additive over disjoint union"
    QCheck.(pair (graph_arbitrary ~max_n:6 ()) (graph_arbitrary ~max_n:6 ()))
    (fun (i1, i2) ->
      let g = graph_of i1 and h = graph_of i2 in
      List.for_all
        (fun t -> Count.hom t (Graph.disjoint_union g h) = Count.hom t g +. Count.hom t h)
        (Tree.all_free_trees_up_to 4))

let prop_hom_invariant_under_iso =
  qtest ~count:25 "hom invariant under isomorphism" (graph_arbitrary ~max_n:7 ()) (fun input ->
      let g = graph_of input in
      let h = Graph.permute g (permutation_of input) in
      List.for_all (fun t -> Count.hom t g = Count.hom t h) (Tree.all_free_trees_up_to 5))

let test_rooted_hom_vector () =
  let star = Generators.star 3 in
  let p2 = Generators.path 2 in
  let v = Count.rooted_hom_vector_any p2 ~root:0 star in
  (* Rooted edge at centre: 3 ways; at a leaf: 1 way. *)
  check_float "centre" 3.0 v.(0);
  check_float "leaf" 1.0 v.(1);
  check_float "sum = hom" (Count.hom p2 star) (Array.fold_left ( +. ) 0.0 v)

let test_rooted_hom_vector_any_clique () =
  let rook = Generators.rook_4x4 () and shri = Generators.shrikhande () in
  let k4 = Generators.complete 4 in
  let rook_counts = Count.rooted_hom_vector_any k4 ~root:0 rook in
  let shri_counts = Count.rooted_hom_vector_any k4 ~root:0 shri in
  (* The rook's graph contains K4s (rows/columns); Shrikhande has none. *)
  check_bool "rook has K4s" true (Array.exists (fun c -> c > 0.0) rook_counts);
  check_bool "shrikhande K4-free" true (Array.for_all (fun c -> c = 0.0) shri_counts)

let test_automorphism_counts () =
  check_float "Aut(K3)" 6.0 (Count.automorphism_count (Generators.complete 3));
  check_float "Aut(P3)" 2.0 (Count.automorphism_count (Generators.path 3));
  check_float "Aut(C4)" 8.0 (Count.automorphism_count (Generators.cycle 4));
  check_float "Aut(C5)" 10.0 (Count.automorphism_count (Generators.cycle 5));
  check_float "Aut(star4)" 24.0 (Count.automorphism_count (Generators.star 4))

let test_subgraph_counts () =
  check_float "triangles in K4" 4.0 (Count.subgraph_count (Generators.complete 3) (Generators.complete 4));
  check_float "C4s in K4" 3.0 (Count.subgraph_count (Generators.cycle 4) (Generators.complete 4));
  check_float "edges in petersen" 15.0
    (Count.subgraph_count (Generators.path 2) (Generators.petersen ()))

let test_triangles () =
  check_float "C6" 0.0 (Count.triangles (Generators.cycle 6));
  check_float "K4" 4.0 (Count.triangles (Generators.complete 4));
  check_float "K5" 10.0 (Count.triangles (Generators.complete 5));
  check_float "rook" 32.0 (Count.triangles (Generators.rook_4x4 ()))

(* The GEL vertex query [triangles_at_x1] counts the triangles through
   x1; each triangle is counted at its three corners. *)
let prop_triangles_at_sum =
  qtest ~count:30 "per-vertex triangle counts sum to 3x total"
    (graph_arbitrary ~max_n:9 ()) (fun input ->
      let g = graph_of input in
      let rows = Glql_gel.Expr.eval_vertexwise g (Glql_gel.Builder.triangles_at_x1 ()) in
      let per_vertex = Array.fold_left (fun acc row -> acc +. row.(0)) 0.0 rows in
      per_vertex = 3.0 *. Count.triangles g)

let test_injective_hom () =
  (* Injective homs of P3 into C3: 3! orderings of distinct vertices with
     both edges present = 6. *)
  check_float "inj P3 -> C3" 6.0
    (Count.hom_bruteforce ~injective:true (Generators.path 3) (Generators.cycle 3))

let test_hom_label_compatible () =
  let g = Generators.path 3 in
  (* Only allow pattern vertex 0 to map to graph vertex 1 (the middle). *)
  let compatible pv gv = pv <> 0 || gv = 1 in
  check_float "pinned root" 2.0 (Count.hom ~compatible (Generators.path 2) g)

(* The Dell-Grohe-Rattan direction on random graphs: tree-hom profiles of
   CR-equivalent graphs agree (we test the contrapositive of slide 27). *)
let prop_cr_equiv_implies_tree_homs_equal =
  qtest ~count:20 "CR-equivalent implies equal tree homs"
    (graph_arbitrary ~max_n:7 ()) (fun input ->
      let g = graph_of input in
      let h = Graph.permute g (permutation_of input) in
      (not (Cr.equivalent_graphs g h))
      || Count.equal_profiles (Tree.all_free_trees_up_to 5) g h)

let suite =
  ( "hom",
    [
      case "rooted tree counts" test_rooted_tree_counts;
      case "free tree counts" test_free_tree_counts;
      case "free trees are trees" test_free_trees_are_trees;
      case "free trees distinct" test_free_trees_distinct;
      case "centroids" test_centroids;
      case "canonical form invariant" test_canon_free_invariant;
      case "is_tree" test_is_tree;
      case "hom known values" test_hom_known_values;
      case "hom cycles" test_hom_cycles;
      prop_tree_dp_equals_bruteforce;
      prop_hom_disjoint_union_additive;
      prop_hom_invariant_under_iso;
      case "rooted hom vector" test_rooted_hom_vector;
      case "rooted hom vector K4" test_rooted_hom_vector_any_clique;
      case "automorphism counts" test_automorphism_counts;
      case "subgraph counts" test_subgraph_counts;
      case "triangles" test_triangles;
      prop_triangles_at_sum;
      case "injective homs" test_injective_hom;
      case "compatible predicate" test_hom_label_compatible;
      prop_cr_equiv_implies_tree_homs_equal;
    ] )
