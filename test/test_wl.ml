(* Tests for glql_wl: partitions, colour refinement, k-WL. *)

open Helpers
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Iso = Glql_graph.Iso
module Partition = Glql_wl.Partition
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Rng = Glql_util.Rng

(* --- partitions ----------------------------------------------------------- *)

let test_partition_basics () =
  let p = Partition.of_classes [| 5; 5; 9; 9; 5 |] in
  check_int "n_classes" 2 (Partition.n_classes p);
  check_bool "normalized" true (Partition.normalize p = [| 0; 0; 1; 1; 0 |]);
  check_bool "same_class" true (Partition.same_class p 0 4);
  check_bool "not same_class" false (Partition.same_class p 0 2)

let test_partition_equal () =
  check_bool "renamed ids equal" true
    (Partition.equal [| 0; 0; 1 |] [| 7; 7; 3 |]);
  check_bool "different groupings differ" false (Partition.equal [| 0; 0; 1 |] [| 0; 1; 1 |])

let test_partition_refines () =
  let fine = [| 0; 1; 2; 2 |] and coarse = [| 0; 0; 1; 1 |] in
  check_bool "fine refines coarse" true (Partition.refines fine coarse);
  check_bool "coarse does not refine fine" false (Partition.refines coarse fine);
  check_bool "strict" true (Partition.strictly_refines fine coarse);
  check_bool "self refines" true (Partition.refines fine fine)

let test_partition_meet () =
  let p = [| 0; 0; 1; 1 |] and q = [| 0; 1; 0; 1 |] in
  let m = Partition.meet p q in
  check_int "meet classes" 4 (Partition.n_classes m);
  check_bool "meet refines p" true (Partition.refines m p);
  check_bool "meet refines q" true (Partition.refines m q)

let test_partition_classes () =
  let p = [| 1; 0; 1 |] in
  Alcotest.(check (list (list int))) "classes" [ [ 0; 2 ]; [ 1 ] ] (Partition.classes p)

(* --- colour refinement ------------------------------------------------------ *)

let test_cr_known_pairs () =
  let c6 = Generators.cycle 6 in
  let c33 = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  check_bool "C6 ~ 2C3" true (Cr.equivalent_graphs c6 c33);
  check_bool "P4 vs star3" false
    (Cr.equivalent_graphs (Generators.path 4) (unlabel (Generators.star 3)));
  check_bool "rook ~ shrikhande" true
    (Cr.equivalent_graphs (Generators.rook_4x4 ()) (Generators.shrikhande ()))

let test_cr_path_colors () =
  (* On P5 the stable colouring groups vertices by distance to the ends. *)
  let result = Cr.run (Generators.path 5) in
  match Cr.stable_colors result with
  | [ colors ] ->
      check_bool "ends equal" true (colors.(0) = colors.(4));
      check_bool "second pair equal" true (colors.(1) = colors.(3));
      check_bool "middle distinct" false (colors.(2) = colors.(0));
      check_bool "end vs second" false (colors.(0) = colors.(1))
  | _ -> Alcotest.fail "expected one graph"

let test_cr_respects_labels () =
  let g = Generators.cycle 4 in
  let h = Graph.with_one_hot_labels g [| 0; 1; 0; 1 |] ~n_colors:2 in
  check_bool "labels break symmetry" false (Cr.equivalent_graphs g h)

let prop_cr_invariant_under_iso =
  qtest "CR invariant under isomorphism" (graph_arbitrary ~max_n:9 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      Cr.equivalent_graphs g h)

let prop_cr_rounds_monotone =
  qtest "refinement only splits classes" (graph_arbitrary ~max_n:9 ()) (fun input ->
      let g = graph_of input in
      let result = Cr.run g in
      let rounds = List.map (fun per_graph -> List.hd per_graph) (Cr.history result) in
      let rec check = function
        | a :: (b :: _ as rest) ->
            Partition.refines (Partition.of_classes b) (Partition.of_classes a) && check rest
        | _ -> true
      in
      check rounds)

let prop_cr_coarser_than_iso =
  qtest ~count:25 "isomorphic implies CR-equivalent" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.shuffle (Rng.create 123) g in
      Cr.equivalent_graphs g h)

let test_cr_vertex_partition_sizes () =
  let corpus = [ Generators.cycle 3; Generators.path 3 ] in
  let p = Cr.vertex_partition corpus in
  check_int "total items" 6 (Partition.size p);
  (* C3 vertices form one class; P3 has ends and middle distinct from C3. *)
  check_int "classes" 3 (Partition.n_classes p)

let test_cr_stable_round () =
  (* [rounds] includes the final confirming round: P5 splits twice then
     confirms (3); a regular graph confirms immediately (1). *)
  check_int "path needs rounds" 3 (Cr.rounds (Cr.run (Generators.path 5)));
  check_int "regular graph stabilises immediately" 1 (Cr.rounds (Cr.run (Generators.cycle 6)))

(* --- k-WL ------------------------------------------------------------------- *)

let test_tuple_encoding () =
  let n = 5 and k = 3 in
  for idx = 0 to Kwl.tuple_count n k - 1 do
    let t = Kwl.decode_tuple ~n ~k idx in
    Alcotest.(check int) "roundtrip" idx (Kwl.encode_tuple ~n t)
  done

let test_kwl_known () =
  let c6 = Generators.cycle 6 in
  let c33 = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  check_bool "2-FWL separates C6 vs 2C3" false
    (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore c6 c33);
  check_bool "1-WL does not separate the regular pair" true
    (Kwl.equivalent_graphs ~k:1 ~variant:Kwl.Oblivious c6 c33);
  check_bool "2-FWL fooled by SRG pair" true
    (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore (Generators.rook_4x4 ())
       (Generators.shrikhande ()))

let test_1owl_equals_cr () =
  (* Oblivious 1-WL is colour refinement. *)
  let graphs =
    [
      Generators.cycle 6;
      Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3);
      Generators.path 4;
      unlabel (Generators.star 3);
      Generators.petersen ();
    ]
  in
  let cr = Cr.graph_partition graphs in
  let owl1 = Kwl.graph_partition ~k:1 ~variant:Kwl.Oblivious graphs in
  check_bool "same partition" true (Partition.equal cr owl1)

let prop_kwl_invariant_under_iso =
  qtest ~count:20 "2-FWL invariant under isomorphism" (graph_arbitrary ~max_n:7 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore g h)

let prop_2fwl_refines_cr =
  qtest ~count:20 "2-FWL separates at least CR" (graph_arbitrary ~max_n:7 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      (* If 2-FWL deems them equivalent, CR must as well. *)
      (not (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore g h)) || Cr.equivalent_graphs g h)

let prop_kwl_equiv_implies_not_distinguishable_by_iso_count =
  qtest ~count:15 "3-FWL equivalence implies isomorphism on tiny graphs"
    (graph_arbitrary ~min_n:2 ~max_n:5 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      (* On graphs with at most 5 vertices, 3-FWL decides isomorphism. *)
      Kwl.equivalent_graphs ~k:3 ~variant:Kwl.Folklore g h = Iso.are_isomorphic g h)

let test_kwl_cfi_hierarchy () =
  let a, b = Glql_graph.Cfi.pair (Generators.complete 3) in
  check_bool "CR fooled by CFI(K3)" true (Cr.equivalent_graphs a b);
  check_bool "2-FWL distinguishes CFI(K3)" false
    (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore a b)

let test_kwl_accessors () =
  let r = Kwl.run_joint ~k:2 ~variant:Kwl.Folklore [ Generators.cycle 4 ] in
  check_bool "rounds positive" true (Kwl.rounds r >= 1);
  (* Diagonal tuples of a vertex-transitive graph share a colour. *)
  let c00 = Kwl.tuple_color r 0 [| 0 |] in
  let c11 = Kwl.tuple_color r 0 [| 1 |] in
  check_int "diagonal colours equal" c00 c11


(* --- CR quotients --------------------------------------------------------- *)

module Quotient = Glql_wl.Quotient

let test_quotient_classes () =
  (* Regular graphs collapse to one class; P5 has 3. *)
  let q = Quotient.of_graph (Generators.petersen ()) in
  check_int "petersen classes" 1 q.Quotient.n_classes;
  check_int "petersen size" 10 q.Quotient.sizes.(0);
  check_int "petersen self-weight" 3 q.Quotient.weights.(0).(0);
  let q5 = Quotient.of_graph (Generators.path 5) in
  check_int "P5 classes" 3 q5.Quotient.n_classes

let prop_quotient_equitable =
  qtest ~count:25 "CR quotient is equitable" (graph_arbitrary ~min_n:1 ~max_n:9 ()) (fun input ->
      let g = labelled_graph_of input in
      Quotient.is_equitable g (Quotient.of_graph g))

let prop_quotient_sizes_sum =
  qtest ~count:20 "class sizes sum to n" (graph_arbitrary ~min_n:1 ~max_n:9 ()) (fun input ->
      let g = graph_of input in
      let q = Quotient.of_graph g in
      Array.fold_left ( + ) 0 q.Quotient.sizes = Graph.n_vertices g)

(* GNN evaluation on the quotient equals evaluation on the full graph. *)
let prop_quotient_preserves_gnn =
  qtest ~count:15 "quotient evaluation = full evaluation"
    (graph_arbitrary ~min_n:1 ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let module Compile_gnn = Glql_gel.Compile_gnn in
      let module Vec = Glql_tensor.Vec in
      let module Mat = Glql_tensor.Mat in
      let spec = Compile_gnn.random_gnn101 (Rng.create 55) ~in_dim:3 ~width:4 ~depth:2 ~out_dim:4 in
      let full = Compile_gnn.gnn101_graph_forward spec g in
      let q = Quotient.of_graph g in
      let layers = Array.of_list spec.Compile_gnn.layers in
      let per_class =
        Quotient.propagate q ~init:Fun.id
          ~update:(fun round self agg ->
            let l = layers.(round) in
            Glql_nn.Activation.apply_vec l.Compile_gnn.act
              (Vec.add
                 (Vec.add (Mat.vec_mul self l.Compile_gnn.w1) (Mat.vec_mul agg l.Compile_gnn.w2))
                 l.Compile_gnn.b))
          ~rounds:2
      in
      let pooled = Quotient.weighted_sum q per_class in
      let compressed =
        Glql_nn.Activation.apply_vec spec.Compile_gnn.readout_act
          (Vec.add (Mat.vec_mul pooled spec.Compile_gnn.readout_w) spec.Compile_gnn.readout_b)
      in
      Vec.linf_dist full compressed < 1e-9)

let suite =
  ( "wl",
    [
      case "partition basics" test_partition_basics;
      case "partition equal" test_partition_equal;
      case "partition refines" test_partition_refines;
      case "partition meet" test_partition_meet;
      case "partition classes" test_partition_classes;
      case "CR known pairs" test_cr_known_pairs;
      case "CR path colours" test_cr_path_colors;
      case "CR respects labels" test_cr_respects_labels;
      prop_cr_invariant_under_iso;
      prop_cr_rounds_monotone;
      prop_cr_coarser_than_iso;
      case "CR vertex partition" test_cr_vertex_partition_sizes;
      case "CR stable round" test_cr_stable_round;
      case "tuple encoding" test_tuple_encoding;
      case "kwl known verdicts" test_kwl_known;
      case "1-OWL = CR" test_1owl_equals_cr;
      prop_kwl_invariant_under_iso;
      prop_2fwl_refines_cr;
      prop_kwl_equiv_implies_not_distinguishable_by_iso_count;
      case "kwl CFI hierarchy" test_kwl_cfi_hierarchy;
      case "kwl accessors" test_kwl_accessors;
      case "quotient classes" test_quotient_classes;
      prop_quotient_equitable;
      prop_quotient_sizes_sum;
      prop_quotient_preserves_gnn;
    ] )
