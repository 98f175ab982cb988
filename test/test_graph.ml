(* Tests for glql_graph: representation, generators, CFI, isomorphism,
   products, graph6. *)

open Helpers
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Iso = Glql_graph.Iso
module Cfi = Glql_graph.Cfi
module Product = Glql_graph.Product
module Graph6 = Glql_graph.Graph6
module Rng = Glql_util.Rng

let test_create_dedup () =
  let g = Graph.unlabelled ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1); (2, 2) ] in
  check_int "edges deduped, self-loops dropped" 1 (Graph.n_edges g);
  check_bool "has edge" true (Graph.has_edge g 0 1);
  check_bool "symmetric" true (Graph.has_edge g 1 0);
  check_bool "no self loop" false (Graph.has_edge g 2 2)

let test_create_bad_edge () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: edge (0,5) out of range") (fun () ->
      ignore (Graph.unlabelled ~n:3 ~edges:[ (0, 5) ]))

let test_degrees () =
  let g = Generators.star 4 in
  check_int "centre degree" 4 (Graph.degree g 0);
  check_int "leaf degree" 1 (Graph.degree g 1);
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 4); (4, 1) ] (Graph.degree_histogram g)

let test_edges_sorted () =
  let g = Graph.unlabelled ~n:4 ~edges:[ (3, 2); (1, 0); (2, 0) ] in
  Alcotest.(check (list (pair int int))) "sorted edge list" [ (0, 1); (0, 2); (2, 3) ]
    (Graph.edges g)

let prop_has_edge_symmetric =
  qtest "has_edge symmetric" (graph_arbitrary ()) (fun input ->
      let g = graph_of input in
      let n = Graph.n_vertices g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Graph.has_edge g u v <> Graph.has_edge g v u then ok := false
        done
      done;
      !ok)

let prop_handshake =
  qtest "sum of degrees = 2m" (graph_arbitrary ()) (fun input ->
      let g = graph_of input in
      let sum = ref 0 in
      for v = 0 to Graph.n_vertices g - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * Graph.n_edges g)

let prop_permute_isomorphic =
  qtest "permute yields isomorphic graph" (graph_arbitrary ~min_n:1 ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let perm = permutation_of input in
      let h = Graph.permute g perm in
      Iso.is_isomorphism g h perm && Iso.are_isomorphic g h)

let test_disjoint_union () =
  let g = Graph.disjoint_union (Generators.cycle 3) (Generators.path 2) in
  check_int "vertices" 5 (Graph.n_vertices g);
  check_int "edges" 4 (Graph.n_edges g);
  check_int "components" 2 (fst (Graph.connected_components g));
  check_bool "no cross edge" false (Graph.has_edge g 0 3)

let test_induced_subgraph () =
  let g = Generators.complete 4 in
  let h = Graph.induced_subgraph g [| 0; 2; 3 |] in
  check_int "vertices" 3 (Graph.n_vertices h);
  check_int "edges" 3 (Graph.n_edges h)

let test_connectivity () =
  check_bool "cycle connected" true (Graph.is_connected (Generators.cycle 5));
  check_bool "union disconnected" false
    (Graph.is_connected (Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3)))

let test_one_hot () =
  let g = Graph.with_one_hot_labels (Generators.path 3) [| 0; 2; 1 |] ~n_colors:3 in
  check_bool "vertex 1 label" true (Graph.label g 1 = [| 0.0; 0.0; 1.0 |]);
  check_int "label dim" 3 (Graph.label_dim g)

(* --- generators --------------------------------------------------------- *)

let test_classic_generators () =
  check_int "cycle edges" 5 (Graph.n_edges (Generators.cycle 5));
  check_int "complete edges" 10 (Graph.n_edges (Generators.complete 5));
  check_int "K_{2,3} edges" 6 (Graph.n_edges (Generators.complete_bipartite 2 3));
  check_int "grid 3x3 edges" 12 (Graph.n_edges (Generators.grid 3 3));
  check_int "petersen edges" 15 (Graph.n_edges (Generators.petersen ()));
  check_int "circulant C8(1,2) edges" 16 (Graph.n_edges (Generators.circulant 8 [ 1; 2 ]))

(* Strongly-regular check: every pair of adjacent vertices has lambda
   common neighbours, every non-adjacent pair mu. *)
let srg_parameters g =
  let n = Graph.n_vertices g in
  let common u v =
    let nu = Array.to_list (Graph.neighbors g u) in
    List.length (List.filter (fun w -> Graph.has_edge g v w) nu)
  in
  let lambdas = ref [] and mus = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Graph.has_edge g u v then lambdas := common u v :: !lambdas
      else mus := common u v :: !mus
    done
  done;
  (List.sort_uniq compare !lambdas, List.sort_uniq compare !mus)

let test_srg_pair () =
  List.iter
    (fun (name, g) ->
      check_int (name ^ " n") 16 (Graph.n_vertices g);
      Alcotest.(check (list (pair int int))) (name ^ " 6-regular") [ (6, 16) ]
        (Graph.degree_histogram g);
      let lambdas, mus = srg_parameters g in
      Alcotest.(check (list int)) (name ^ " lambda=2") [ 2 ] lambdas;
      Alcotest.(check (list int)) (name ^ " mu=2") [ 2 ] mus)
    [ ("rook", Generators.rook_4x4 ()); ("shrikhande", Generators.shrikhande ()) ];
  check_bool "non-isomorphic" false
    (Iso.are_isomorphic (Generators.rook_4x4 ()) (Generators.shrikhande ()))

let test_random_regular () =
  let g = Generators.random_regular (Rng.create 5) ~n:10 ~d:3 in
  Alcotest.(check (list (pair int int))) "3-regular" [ (3, 10) ] (Graph.degree_histogram g)

let test_random_tree () =
  let g = Generators.random_tree (Rng.create 5) ~n:12 in
  check_bool "connected" true (Graph.is_connected g);
  check_int "tree edges" 11 (Graph.n_edges g)

let test_sbm_blocks () =
  let g, blocks = Generators.sbm (Rng.create 5) ~sizes:[| 3; 4 |] ~p_in:1.0 ~p_out:0.0 ~labelled:true in
  check_int "n" 7 (Graph.n_vertices g);
  check_int "two cliques" (3 + 6) (Graph.n_edges g);
  check_int "components" 2 (fst (Graph.connected_components g));
  check_bool "block labels" true (Graph.label g 0 = [| 1.0; 0.0 |]);
  check_int "block of last" 1 blocks.(6)

let test_molecule () =
  let g, atoms = Generators.molecule (Rng.create 5) ~n:10 ~n_atom_types:3 ~ring_edges:2 in
  check_bool "connected" true (Graph.is_connected g);
  check_int "edges = tree + rings" (9 + 2) (Graph.n_edges g);
  check_int "atom count" 10 (Array.length atoms)

(* --- CFI ----------------------------------------------------------------- *)

let test_cfi_size () =
  let k3 = Generators.complete 3 in
  let c = Cfi.build k3 in
  (* K3: 3 gadgets of degree 2 -> 2 middles + 4 ports each = 18. *)
  check_int "CFI(K3) size" 18 (Graph.n_vertices (Cfi.graph c))

let test_cfi_parity () =
  let k3 = Generators.complete 3 in
  let g0 = Cfi.graph (Cfi.build k3) in
  let g1 = Cfi.graph (Cfi.build ~twisted:[ 0 ] k3) in
  let g2 = Cfi.graph (Cfi.build ~twisted:[ 0; 1 ] k3) in
  let g3 = Cfi.graph (Cfi.build ~twisted:[ 0; 1; 2 ] k3) in
  check_bool "one twist differs" false (Iso.are_isomorphic g0 g1);
  check_bool "two twists isomorphic to none" true (Iso.are_isomorphic g0 g2);
  check_bool "three twists isomorphic to one" true (Iso.are_isomorphic g1 g3)

let test_cfi_regular_structure () =
  (* Over the degree-2 base K3, the untwisted CFI graph splits into the
     even and odd cycle-cover components (2 components); one twist merges
     them into a single doubled cycle — the classic picture. *)
  let k3 = Generators.complete 3 in
  check_int "untwisted components" 2
    (fst (Graph.connected_components (Cfi.graph (Cfi.build k3))));
  check_int "twisted components" 1
    (fst (Graph.connected_components (Cfi.graph (Cfi.build ~twisted:[ 0 ] k3))));
  (* A base of minimum degree 3 yields a connected CFI graph. *)
  check_bool "CFI(K4) connected" true
    (Graph.is_connected (Cfi.graph (Cfi.build (Generators.complete 4))));
  let c = Cfi.build k3 in
  match Cfi.kind c 0 with
  | Cfi.Middle (v, _) -> check_bool "middle of base vertex" true (v >= 0 && v < 3)
  | Cfi.Port _ -> ()

let test_cfi_disconnected_base_rejected () =
  let base = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  Alcotest.check_raises "rejects" (Invalid_argument "Cfi.build: base must be connected") (fun () ->
      ignore (Cfi.build base))

(* --- iso ------------------------------------------------------------------ *)

let test_iso_basic () =
  check_bool "C4 vs P4" false (Iso.are_isomorphic (Generators.cycle 4) (Generators.path 4));
  check_bool "C5 self" true (Iso.are_isomorphic (Generators.cycle 5) (Generators.cycle 5))

let test_iso_labels_matter () =
  let g = Generators.path 2 in
  let h = Graph.with_labels g [| [| 1.0 |]; [| 2.0 |] |] in
  check_bool "labelled differently" false (Iso.are_isomorphic g h)

let prop_iso_shuffle =
  qtest "shuffled copy isomorphic" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.shuffle (Rng.create 77) g in
      match Iso.find_isomorphism g h with
      | Some perm -> Iso.is_isomorphism g h perm
      | None -> false)

let prop_iso_edge_removed =
  qtest "removing an edge breaks isomorphism" (graph_arbitrary ~min_n:3 ~max_n:8 ()) (fun input ->
      let g = graph_of input in
      match Graph.edges g with
      | [] -> QCheck.assume_fail ()
      | (u, v) :: _ ->
          let edges' = List.filter (fun e -> e <> (u, v)) (Graph.edges g) in
          let h = Graph.unlabelled ~n:(Graph.n_vertices g) ~edges:edges' in
          not (Iso.are_isomorphic g h))

(* --- products / graph6 ----------------------------------------------------- *)

let test_products () =
  let c3 = Generators.cycle 3 and k2 = Generators.complete 2 in
  let cart = Product.cartesian c3 k2 in
  check_int "prism vertices" 6 (Graph.n_vertices cart);
  check_int "prism edges" 9 (Graph.n_edges cart);
  Alcotest.(check (list (pair int int))) "prism 3-regular" [ (3, 6) ] (Graph.degree_histogram cart);
  let tens = Product.tensor c3 k2 in
  check_int "tensor vertices" 6 (Graph.n_vertices tens);
  (* C3 x K2 tensor product is C6. *)
  check_bool "tensor C3xK2 ~ C6" true (Iso.are_isomorphic (unlabel tens) (Generators.cycle 6))

let test_graph6_known () =
  (* Petersen's canonical graph6 encoding round-trips. *)
  let g = Generators.petersen () in
  let s = Graph6.encode g in
  let g' = Graph6.decode s in
  check_bool "roundtrip equal structure" true (Graph.equal_structure g g')

let test_graph6_long_form () =
  (* Graphs above 62 vertices use the 4-byte header. *)
  let g = graph_of (424242, 70, 10) in
  let s = Graph6.encode g in
  check_bool "long header" true (s.[0] = Char.chr 126);
  check_bool "roundtrip" true (Graph.equal_structure g (Graph6.decode s))

let test_empty_graph () =
  let g = Graph.unlabelled ~n:0 ~edges:[] in
  check_int "no vertices" 0 (Graph.n_vertices g);
  check_int "no edges" 0 (Graph.n_edges g);
  check_bool "empty connected by convention" true (Graph.is_connected g);
  check_bool "graph6 roundtrip" true (Graph.equal_structure g (Graph6.decode (Graph6.encode g)))

let prop_graph6_roundtrip =
  qtest "graph6 roundtrip" (graph_arbitrary ~min_n:1 ~max_n:20 ()) (fun input ->
      let g = graph_of input in
      Graph.equal_structure g (Graph6.decode (Graph6.encode g)))

let suite =
  ( "graph",
    [
      case "create dedup" test_create_dedup;
      case "create bad edge" test_create_bad_edge;
      case "degrees" test_degrees;
      case "edges sorted" test_edges_sorted;
      prop_has_edge_symmetric;
      prop_handshake;
      prop_permute_isomorphic;
      case "disjoint union" test_disjoint_union;
      case "induced subgraph" test_induced_subgraph;
      case "connectivity" test_connectivity;
      case "one-hot labels" test_one_hot;
      case "classic generators" test_classic_generators;
      case "SRG(16,6,2,2) pair" test_srg_pair;
      case "random regular" test_random_regular;
      case "random tree" test_random_tree;
      case "sbm blocks" test_sbm_blocks;
      case "molecule" test_molecule;
      case "CFI size" test_cfi_size;
      case "CFI twist parity" test_cfi_parity;
      case "CFI structure" test_cfi_regular_structure;
      case "CFI disconnected base" test_cfi_disconnected_base_rejected;
      case "iso basics" test_iso_basic;
      case "iso labels" test_iso_labels_matter;
      prop_iso_shuffle;
      prop_iso_edge_removed;
      case "products" test_products;
      case "graph6 petersen" test_graph6_known;
      case "graph6 long form" test_graph6_long_form;
      case "empty graph" test_empty_graph;
      prop_graph6_roundtrip;
    ] )
