(* Tests for glql_logic: graded modal logic and counting FO. *)

open Helpers
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Gml = Glql_logic.Gml
module Fo = Glql_logic.Fo
module Cr = Glql_wl.Color_refinement
module Rng = Glql_util.Rng

let labelled_path () =
  (* P4 with colours 0,1,1,0 one-hot in 2 dims. *)
  Graph.with_one_hot_labels (Generators.path 4) [| 0; 1; 1; 0 |] ~n_colors:2

let test_gml_props () =
  let g = labelled_path () in
  Alcotest.(check (array bool)) "p0" [| true; false; false; true |] (Gml.eval (Gml.Prop 0) g);
  Alcotest.(check (array bool)) "p1" [| false; true; true; false |] (Gml.eval (Gml.Prop 1) g);
  Alcotest.(check (array bool)) "top" [| true; true; true; true |] (Gml.eval Gml.Top g)

let test_gml_connectives () =
  let g = labelled_path () in
  let both = Gml.And (Gml.Prop 0, Gml.Prop 1) in
  Alcotest.(check (array bool)) "and" [| false; false; false; false |] (Gml.eval both g);
  let either = Gml.Or (Gml.Prop 0, Gml.Prop 1) in
  Alcotest.(check (array bool)) "or" [| true; true; true; true |] (Gml.eval either g);
  Alcotest.(check (array bool)) "not" [| false; true; true; false |]
    (Gml.eval (Gml.Not (Gml.Prop 0)) g)

let test_gml_diamond () =
  let g = labelled_path () in
  (* At least one neighbour satisfying p1: true at 0, 1, 2, 3?
     N(0)={1}: yes. N(1)={0,2}: vertex 2 has p1: yes. N(2)={1,3}: yes.
     N(3)={2}: yes. *)
  Alcotest.(check (array bool)) "diamond1" [| true; true; true; true |]
    (Gml.eval (Gml.Diamond (1, Gml.Prop 1)) g);
  (* At least two neighbours satisfying p1: only vertices with both
     neighbours labelled 1 - none here (1's neighbours are 0 and 2). *)
  Alcotest.(check (array bool)) "diamond2" [| false; false; false; false |]
    (Gml.eval (Gml.Diamond (2, Gml.Prop 1)) g)

let test_gml_degree_formula () =
  (* Diamond(k, Top) = "degree >= k". *)
  let g = unlabel (Generators.star 3) in
  Alcotest.(check (array bool)) "deg >= 3" [| true; false; false; false |]
    (Gml.eval (Gml.Diamond (3, Gml.Top)) g)

let test_gml_depth_size () =
  let phi = Gml.Diamond (2, Gml.And (Gml.Prop 0, Gml.Diamond (1, Gml.Top))) in
  check_int "depth" 2 (Gml.depth phi);
  check_int "size" 5 (Gml.size phi);
  check_bool "printable" true (String.length (Gml.to_string phi) > 0)

let test_gml_random_depth () =
  let rng = Rng.create 3 in
  for d = 1 to 4 do
    let phi = Gml.random rng ~n_props:2 ~target_depth:d ~max_count:2 in
    check_bool "depth reached" true (Gml.depth phi >= d)
  done

(* Invariance (slide 11): GML truth is preserved by isomorphism. *)
let prop_gml_invariant =
  qtest ~count:30 "GML invariant under isomorphism" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let seed, _, _ = input in
      let g = labelled_graph_of ~n_colors:2 input in
      let perm = permutation_of input in
      let h = Graph.permute g perm in
      let phi = Gml.random (Rng.create seed) ~n_props:2 ~target_depth:2 ~max_count:2 in
      let tg = Gml.eval phi g and th = Gml.eval phi h in
      Array.for_all (fun v -> tg.(v) = th.(perm.(v))) (Array.init (Graph.n_vertices g) (fun i -> i)))

(* The guarded-C2 connection (slide 51): CR-equivalent vertices satisfy the
   same GML formulas. *)
let prop_gml_bounded_by_cr =
  qtest ~count:25 "CR-equivalent vertices agree on GML"
    (graph_arbitrary ~min_n:2 ~max_n:8 ()) (fun input ->
      let seed, _, _ = input in
      let g = labelled_graph_of ~n_colors:2 input in
      let result = Cr.run g in
      match Cr.stable_colors result with
      | [ colors ] ->
          let phi = Gml.random (Rng.create (seed * 3)) ~n_props:2 ~target_depth:3 ~max_count:2 in
          let truth = Gml.eval phi g in
          let ok = ref true in
          let n = Graph.n_vertices g in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if colors.(u) = colors.(v) && truth.(u) <> truth.(v) then ok := false
            done
          done;
          !ok
      | _ -> false)

(* --- counting FO ------------------------------------------------------------ *)

let test_fo_degree () =
  (* "x0 has at least 2 neighbours": E>=2 x1. E(x0,x1). *)
  let phi = Fo.ExistsGeq (2, 1, Fo.Edge (0, 1)) in
  let g = unlabel (Generators.star 3) in
  Alcotest.(check (array bool)) "degree >= 2" [| true; false; false; false |]
    (Fo.eval_unary phi g ~x:0)

let test_fo_triangle () =
  (* "x0 lies on a triangle" with three variables. *)
  let phi =
    Fo.exists 1
      (Fo.exists 2
         (Fo.And (Fo.Edge (0, 1), Fo.And (Fo.Edge (1, 2), Fo.Edge (2, 0)))))
  in
  let tri_plus_tail = Graph.unlabelled ~n:4 ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  Alcotest.(check (array bool)) "triangle membership" [| true; true; true; false |]
    (Fo.eval_unary phi tri_plus_tail ~x:0);
  check_int "width 3" 3 (Fo.width phi)

let test_fo_sentence () =
  (* "There exist at least 2 vertices of degree >= 2". *)
  let phi = Fo.ExistsGeq (2, 0, Fo.ExistsGeq (2, 1, Fo.Edge (0, 1))) in
  check_bool "true on C3" true (Fo.eval_sentence phi (Generators.cycle 3));
  check_bool "false on star3" false (Fo.eval_sentence phi (unlabel (Generators.star 3)))

let test_fo_equality_and_labels () =
  let g = Graph.with_one_hot_labels (Generators.path 2) [| 0; 1 |] ~n_colors:2 in
  (* "Some vertex different from x0 has label 1". *)
  let phi = Fo.exists 1 (Fo.And (Fo.Not (Fo.Eq (0, 1)), Fo.Lab (1, 1))) in
  Alcotest.(check (array bool)) "other with label" [| true; false |] (Fo.eval_unary phi g ~x:0)

let test_fo_forall () =
  (* "All vertices adjacent to x0" — true only for a dominating vertex. *)
  let phi = Fo.Not (Fo.ExistsGeq (1, 1, Fo.Not (Fo.Or (Fo.Eq (0, 1), Fo.Edge (0, 1))))) in
  let g = unlabel (Generators.star 3) in
  Alcotest.(check (array bool)) "dominating" [| true; false; false; false |]
    (Fo.eval_unary phi g ~x:0)

let test_fo_free_vars () =
  let phi = Fo.ExistsGeq (1, 1, Fo.And (Fo.Edge (0, 1), Fo.Lab (0, 2))) in
  Alcotest.(check (list int)) "free vars" [ 0; 2 ] (Fo.free_vars phi);
  Alcotest.(check (list int)) "all vars" [ 0; 1; 2 ] (Fo.variables phi);
  check_bool "sentence rejects free vars" true
    (try
       ignore (Fo.eval_sentence phi (Generators.cycle 3));
       false
     with Invalid_argument _ -> true)

let suite =
  ( "logic",
    [
      case "gml props" test_gml_props;
      case "gml connectives" test_gml_connectives;
      case "gml diamond" test_gml_diamond;
      case "gml degree formula" test_gml_degree_formula;
      case "gml depth/size" test_gml_depth_size;
      case "gml random depth" test_gml_random_depth;
      prop_gml_invariant;
      prop_gml_bounded_by_cr;
      case "fo degree" test_fo_degree;
      case "fo triangle" test_fo_triangle;
      case "fo sentence" test_fo_sentence;
      case "fo equality+labels" test_fo_equality_and_labels;
      case "fo forall" test_fo_forall;
      case "fo free vars" test_fo_free_vars;
    ] )
