(* Tests for glql_gel: the embedding language itself — static analysis,
   evaluation, invariance, compilers, normal forms, WL simulations,
   views. *)

open Helpers
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Cr = Glql_wl.Color_refinement
module Count = Glql_hom.Count
module Gml = Glql_logic.Gml
module Func = Glql_gel.Func
module Agg = Glql_gel.Agg
module Expr = Glql_gel.Expr
module B = Glql_gel.Builder
module Compile_gnn = Glql_gel.Compile_gnn
module Compile_gml = Glql_gel.Compile_gml
module Normal_form = Glql_gel.Normal_form
module Wl_sim = Glql_gel.Wl_sim
module Views = Glql_gel.Views

(* --- Func / Agg -------------------------------------------------------------- *)

let test_func_apply () =
  let f = Func.linear (Mat.of_rows [ [| 2.0 |]; [| 3.0 |] ]) [| 1.0 |] in
  check_bool "linear" true (Func.apply f [ [| 1.0; 1.0 |] ] = [| 6.0 |]);
  let c = Func.concat [ 1; 2 ] in
  check_bool "concat" true (Func.apply c [ [| 1.0 |]; [| 2.0; 3.0 |] ] = [| 1.0; 2.0; 3.0 |]);
  let p = Func.product 2 in
  check_bool "product" true (Func.apply p [ [| 2.0; 3.0 |]; [| 4.0; 5.0 |] ] = [| 8.0; 15.0 |])

let test_func_dim_check () =
  let f = Func.product 2 in
  check_bool "raises" true
    (try
       ignore (Func.apply f [ [| 1.0 |]; [| 1.0; 2.0 |] ]);
       false
     with Invalid_argument _ -> true)

let test_agg_basics () =
  let bag = [ [| 1.0; 2.0 |]; [| 3.0; 0.0 |] ] in
  check_bool "sum" true (Agg.apply (Agg.sum 2) bag = [| 4.0; 2.0 |]);
  check_bool "mean" true (Agg.apply (Agg.mean 2) bag = [| 2.0; 1.0 |]);
  check_bool "max" true (Agg.apply (Agg.max 2) bag = [| 3.0; 2.0 |]);
  check_bool "min" true (Agg.apply (Agg.min 2) bag = [| 1.0; 0.0 |]);
  check_bool "count" true (Agg.apply (Agg.count 2) bag = [| 2.0 |])

let test_agg_empty_bag () =
  check_bool "sum empty" true (Agg.apply (Agg.sum 2) [] = [| 0.0; 0.0 |]);
  check_bool "mean empty" true (Agg.apply (Agg.mean 2) [] = [| 0.0; 0.0 |]);
  check_bool "max empty" true (Agg.apply (Agg.max 2) [] = [| 0.0; 0.0 |]);
  check_bool "count empty" true (Agg.apply (Agg.count 2) [] = [| 0.0 |])

(* --- static analysis ---------------------------------------------------------- *)

let test_static_analysis () =
  let deg = B.degree ~x:B.x1 ~y:B.x2 in
  Alcotest.(check (list int)) "fv" [ 1 ] (Expr.free_vars deg);
  check_int "dim" 1 (Expr.dim deg);
  check_int "width" 2 (Expr.width deg);
  check_int "agg depth" 1 (Expr.agg_depth deg);
  check_bool "guarded" true (Expr.is_mpnn deg);
  let tri = B.triangle_count () in
  Alcotest.(check (list int)) "closed" [] (Expr.free_vars tri);
  check_int "width 3" 3 (Expr.width tri);
  check_bool "not mpnn" false (Expr.is_mpnn tri);
  check_bool "fragment names" true
    (Expr.fragment_name (Expr.fragment tri) = "GEL3"
    && Expr.fragment_name (Expr.fragment deg) = "MPNN")

let test_type_errors () =
  let bad = Expr.Apply (Func.product 2, [ B.const1 1.0; Expr.Const [| 1.0; 2.0 |] ]) in
  check_bool "dim mismatch raises" true
    (try
       ignore (Expr.dim bad);
       false
     with Expr.Type_error _ -> true);
  let bad_agg = Expr.Agg (Agg.sum 2, [ B.x2 ], B.const1 1.0, B.edge B.x1 B.x2) in
  check_bool "agg dim mismatch raises" true
    (try
       ignore (Expr.dim bad_agg);
       false
     with Expr.Type_error _ -> true);
  check_bool "empty binder raises" true
    (try
       ignore (Expr.free_vars (Expr.Agg (Agg.sum 1, [], B.const1 1.0, B.const1 1.0)));
       false
     with Expr.Type_error _ -> true)

(* The builder reads only root dimensions, so it accepts a malformed
   argument; using the result rejects it. Its own dim checks remain. *)
let test_builder_defers_validation () =
  let bad = Expr.Apply (Func.product 2, [ B.const1 1.0; Expr.Const [| 1.0; 2.0 |] ]) in
  let built = B.sum_neighbors ~x:B.x1 ~y:B.x2 (B.relu (B.scale 2.0 bad)) in
  check_int "root dim read without validation" 2 (B.root_dim built);
  let raises f = try ignore (f ()); false with Expr.Type_error _ -> true in
  check_bool "Expr.dim rejects it" true (raises (fun () -> Expr.dim built));
  check_bool "Expr.eval rejects it" true
    (raises (fun () -> Expr.eval (Generators.path 3) built));
  check_bool "mul still checks dims" true
    (try ignore (B.mul (B.const1 1.0) (Expr.Const [| 1.0; 2.0 |])); false
     with Invalid_argument _ -> true);
  check_bool "add still checks dims" true
    (try ignore (B.add (B.const1 1.0) (Expr.Const [| 1.0; 2.0 |])); false
     with Invalid_argument _ -> true)

(* [dim] and [free_vars] keep nothing once they return: parsing one
   source again and again, and analysing each result, leaves the live
   heap where it was. A process-wide memo keyed on nodes would retain
   every parse (about 0.9 M words here). *)
let test_analyses_retain_nothing () =
  let src = "agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])" in
  let parse_and_analyse () =
    for _ = 1 to 5000 do
      let e = Glql_gel.Parser.parse src in
      ignore (Sys.opaque_identity (Expr.dim e, Expr.free_vars e))
    done
  in
  parse_and_analyse ();
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  parse_and_analyse ();
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  if grown >= 10_000 then Alcotest.failf "live heap grew by %d words over 5000 parses" grown

let test_n_nodes_shared () =
  let shared = B.degree ~x:B.x1 ~y:B.x2 in
  let e = B.add shared shared in
  (* Sharing counts once: degree has 3 nodes (agg, const, edge) + add. *)
  check_int "dag nodes" 4 (Expr.n_nodes e)

let test_to_string () =
  let s = Expr.to_string (B.degree ~x:B.x1 ~y:B.x2) in
  check_bool "prints" true (String.length s > 5)

(* --- evaluation --------------------------------------------------------------- *)

let test_eval_degree () =
  let g = unlabel (Generators.star 3) in
  let v = Expr.eval_vertexwise g (B.degree ~x:B.x1 ~y:B.x2) in
  check_float "centre" 3.0 v.(0).(0);
  check_float "leaf" 1.0 v.(1).(0)

let test_eval_two_walks () =
  let g = Generators.path 3 in
  let v = Expr.eval_vertexwise g (B.two_walks ~x:B.x1 ~y:B.x2) in
  (* Vertex 0: walks 0-1-0, 0-1-2 => deg sum over neighbours = 2. *)
  check_float "end" 2.0 v.(0).(0);
  check_float "middle" 2.0 v.(1).(0)

let test_eval_edge_and_cmp () =
  let g = Generators.path 2 in
  check_float "edge" 1.0 (eval_at g (B.edge B.x1 B.x2) [| 0; 1 |]).(0);
  check_float "eq diff" 0.0 (eval_at g (B.eq B.x1 B.x2) [| 0; 1 |]).(0);
  check_float "eq same" 1.0 (eval_at g (B.eq B.x1 B.x2) [| 1; 1 |]).(0);
  check_float "neq" 1.0 (eval_at g (Expr.Cmp (Expr.Cneq, B.x1, B.x2)) [| 0; 1 |]).(0);
  (* E(x,x) is always false on simple graphs. *)
  check_float "self edge" 0.0 (eval_at g (B.edge B.x1 B.x1) [| 0 |]).(0)

let test_eval_triangles_at () =
  let g = Generators.complete 4 in
  let e = B.triangles_at_x1 () in
  let v = Expr.eval_vertexwise g e in
  (* Each K4 vertex lies on 3 triangles. *)
  Array.iter (fun row -> check_float "triangles at v" 3.0 row.(0)) v

let prop_triangle_count_matches_bruteforce =
  qtest ~count:25 "GEL3 triangle count = brute force" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let g = graph_of input in
      (Expr.eval_closed g (B.triangle_count ())).(0) = Count.triangles g)

let test_common_neighbors () =
  let g = Generators.complete_bipartite 2 3 in
  let e = B.common_neighbors () in
  (* Two left vertices share all 3 right vertices. *)
  check_float "left pair" 3.0 (eval_at g e [| 0; 1 |]).(0);
  (* A left and a right vertex share none. *)
  check_float "cross pair" 0.0 (eval_at g e [| 0; 2 |]).(0)

let test_global_readout () =
  let g = Generators.cycle 5 in
  let e = B.readout_sum ~x:B.x1 (B.degree ~x:B.x1 ~y:B.x2) in
  check_float "sum of degrees" 10.0 (Expr.eval_closed g e).(0)

let test_mean_max_aggregations () =
  let g = unlabel (Generators.star 2) in
  let mean_deg = B.mean_neighbors ~x:B.x1 ~y:B.x2 (B.degree ~x:B.x2 ~y:B.x1) in
  let v = Expr.eval_vertexwise g mean_deg in
  (* Centre's neighbours have degree 1. *)
  check_float "centre" 1.0 v.(0).(0);
  (* Leaf's only neighbour (the centre) has degree 2. *)
  check_float "leaf" 2.0 v.(1).(0)

let test_eval_closed_rejects_open () =
  check_bool "raises on free vars" true
    (try
       ignore (Expr.eval_closed (Generators.path 2) (B.lab 0 B.x1));
       false
     with Invalid_argument _ -> true)

(* Invariance of the language semantics (slide 11). *)
let prop_gel_invariance =
  qtest ~count:25 "GEL semantics invariant under isomorphism"
    (graph_arbitrary ~max_n:7 ()) (fun input ->
      let g = labelled_graph_of input in
      let perm = permutation_of input in
      let h = Graph.permute g perm in
      let rng = Rng.create 99 in
      let e = Wl_sim.cr_expr rng ~label_dim:3 ~rounds:2 ~dim:4 in
      let vg = Expr.eval_vertexwise g e and vh = Expr.eval_vertexwise h e in
      let ok = ref true in
      Array.iteri (fun v value -> if not (vec_approx ~tol:1e-9 value vh.(perm.(v))) then ok := false) vg;
      !ok)

(* --- compilers ----------------------------------------------------------------- *)

let compare_expr_tensor g expr reference =
  let table = Expr.eval g expr in
  let ok = ref true in
  Array.iteri
    (fun v row -> if not (vec_approx ~tol:1e-7 row (Mat.row reference v)) then ok := false)
    table.Expr.tdata;
  !ok

let prop_gnn101_compiles =
  qtest ~count:15 "GNN101 expression = tensor forward" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of input in
      let rng = Rng.create 5 in
      let spec = Compile_gnn.random_gnn101 rng ~in_dim:3 ~width:4 ~depth:2 ~out_dim:3 in
      Expr.is_mpnn (Compile_gnn.gnn101_vertex_expr spec)
      && compare_expr_tensor g (Compile_gnn.gnn101_vertex_expr spec)
           (Compile_gnn.gnn101_vertex_forward spec g)
      && vec_approx ~tol:1e-7
           (Expr.eval_closed g (Compile_gnn.gnn101_graph_expr spec))
           (Compile_gnn.gnn101_graph_forward spec g))

let prop_gcn_compiles =
  qtest ~count:15 "GCN expression = tensor forward" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of input in
      let rng = Rng.create 6 in
      let spec = Compile_gnn.random_gcn rng ~in_dim:3 ~width:4 ~depth:2 in
      Expr.is_mpnn (Compile_gnn.gcn_vertex_expr spec)
      && compare_expr_tensor g (Compile_gnn.gcn_vertex_expr spec)
           (Compile_gnn.gcn_vertex_forward spec g))

let prop_gin_compiles =
  qtest ~count:15 "GIN expression = tensor forward" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of input in
      let rng = Rng.create 7 in
      let spec = Compile_gnn.random_gin rng ~in_dim:3 ~width:4 ~depth:2 in
      Expr.is_mpnn (Compile_gnn.gin_vertex_expr spec)
      && compare_expr_tensor g (Compile_gnn.gin_vertex_expr spec)
           (Compile_gnn.gin_vertex_forward spec g))

let prop_sage_compiles =
  qtest ~count:10 "SAGE expressions = tensor forward" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of input in
      List.for_all
        (fun agg ->
          let rng = Rng.create 8 in
          let spec = Compile_gnn.random_sage rng ~in_dim:3 ~width:3 ~depth:2 ~agg in
          Expr.is_mpnn (Compile_gnn.sage_vertex_expr spec)
          && compare_expr_tensor g (Compile_gnn.sage_vertex_expr spec)
               (Compile_gnn.sage_vertex_forward spec g))
        [ Compile_gnn.Sage_sum; Compile_gnn.Sage_mean; Compile_gnn.Sage_max ])

let prop_gat_compiles =
  qtest ~count:10 "GAT expression = tensor forward" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of input in
      let rng = Rng.create 9 in
      let spec = Compile_gnn.random_gat rng ~in_dim:3 ~width:3 ~depth:2 in
      Expr.is_mpnn (Compile_gnn.gat_vertex_expr spec)
      && compare_expr_tensor g (Compile_gnn.gat_vertex_expr spec)
           (Compile_gnn.gat_vertex_forward spec g))

let prop_gml_compiler_agrees =
  qtest ~count:40 "GML compiler = logic evaluator" (graph_arbitrary ~min_n:1 ~max_n:8 ())
    (fun input ->
      let seed, _, _ = input in
      let g = labelled_graph_of ~n_colors:3 input in
      let phi = Gml.random (Rng.create (seed + 1)) ~n_props:3 ~target_depth:3 ~max_count:3 in
      Compile_gml.eval_compiled phi g = Gml.eval phi g)

let test_gml_compiled_is_mpnn () =
  let phi = Gml.Diamond (2, Gml.And (Gml.Prop 0, Gml.Not (Gml.Prop 1))) in
  check_bool "guarded" true (Expr.is_mpnn (Compile_gml.compile phi))

(* --- normal form ----------------------------------------------------------------- *)

let nf_cases rng =
  [
    ("gnn101-1", Compile_gnn.gnn101_vertex_expr (Compile_gnn.random_gnn101 rng ~in_dim:2 ~width:3 ~depth:1 ~out_dim:3));
    ("gnn101-2", Compile_gnn.gnn101_vertex_expr (Compile_gnn.random_gnn101 rng ~in_dim:2 ~width:3 ~depth:2 ~out_dim:3));
    ("gin", Compile_gnn.gin_vertex_expr (Compile_gnn.random_gin rng ~in_dim:2 ~width:3 ~depth:2));
    ("gcn", Compile_gnn.gcn_vertex_expr (Compile_gnn.random_gcn rng ~in_dim:2 ~width:3 ~depth:2));
    ("two-walks", B.two_walks ~x:B.x1 ~y:B.x2);
  ]

let prop_normal_form_preserves_semantics =
  qtest ~count:15 "normal form preserves semantics" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = labelled_graph_of ~n_colors:2 input in
      let rng = Rng.create 44 in
      List.for_all
        (fun (_name, e) ->
          let nf = Normal_form.of_vertex_expr e in
          Normal_form.max_deviation nf e g < 1e-9)
        (nf_cases rng))

(* A [lab] past the graph's label dimension fails through the layered
   kernel with the join's [Type_error] and message, naming the largest
   label the expression reads. *)
let test_normal_form_label_beyond_dimension () =
  let g = Generators.petersen () in
  let message f = try ignore (f ()); None with Expr.Type_error m -> Some m in
  let e = Glql_gel.Parser.parse "agg_sum{x2}(product(lab3(x2), lab5(x1)) | E(x1,x2))" in
  let nf = Normal_form.of_vertex_expr e in
  let want = Some "lab5: graph has label dimension 1" in
  Alcotest.(check (option string)) "layered" want (message (fun () -> Normal_form.eval nf g));
  Alcotest.(check (option string)) "join" want (message (fun () -> Expr.eval g e));
  let ok = Normal_form.of_vertex_expr (Glql_gel.Parser.parse "agg_sum{x2}(lab0(x2) | E(x1,x2))") in
  check_int "lab0 answers every vertex" 10 (Mat.rows (Normal_form.eval ok g))

let test_normal_form_expr_shape () =
  let rng = Rng.create 45 in
  let e =
    Compile_gnn.gnn101_vertex_expr (Compile_gnn.random_gnn101 rng ~in_dim:2 ~width:3 ~depth:2 ~out_dim:3)
  in
  let nf = Normal_form.of_vertex_expr e in
  let nfe = Normal_form.to_expr nf in
  check_bool "normal form is guarded" true (Expr.is_mpnn nfe);
  let g = Graph.with_one_hot_labels (Generators.cycle 5) [| 0; 1; 0; 1; 0 |] ~n_colors:2 in
  let a = Expr.eval_vertexwise g nfe in
  let b = Expr.eval_vertexwise g e in
  let ok = ref true in
  Array.iteri (fun i v -> if not (vec_approx ~tol:1e-9 v b.(i)) then ok := false) a;
  check_bool "nf expression evaluates equally" true !ok

let test_separation_step () =
  (* After separation every aggregation value mentions only its bound
     variable; two-walks is the classic mixed example. *)
  let e = B.two_walks ~x:B.x1 ~y:B.x2 in
  let sep = Normal_form.separate e in
  let g = Generators.path 4 in
  let a = Expr.eval_vertexwise g e and b = Expr.eval_vertexwise g sep in
  let ok = ref true in
  Array.iteri (fun i v -> if not (vec_approx v b.(i)) then ok := false) a;
  check_bool "separation preserves value" true !ok

let test_normal_form_rejects_mean () =
  let e = B.mean_neighbors ~x:B.x1 ~y:B.x2 (B.lab 0 B.x2) in
  check_bool "mean unsupported" true
    (try
       ignore (Normal_form.of_vertex_expr e);
       false
     with Normal_form.Unsupported _ -> true)

let test_normal_form_rejects_gel3 () =
  check_bool "triangles-at unsupported (not MPNN)" true
    (try
       ignore (Normal_form.of_vertex_expr (B.triangles_at_x1 ()));
       false
     with Normal_form.Unsupported _ -> true)

(* --- WL simulations ----------------------------------------------------------------- *)

let test_cr_sim_matches_cr_partition () =
  let corpus =
    [
      Generators.cycle 6;
      Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3);
      Generators.path 4;
      unlabel (Generators.star 3);
    ]
  in
  let cr = Cr.vertex_partition corpus in
  let e = Wl_sim.cr_expr (Rng.create 50) ~label_dim:1 ~rounds:6 ~dim:8 in
  let sigs =
    List.concat_map
      (fun g ->
        Array.to_list
          (Array.map (Glql_util.Sig_hash.of_float_vector ~decimals:9) (Expr.eval_vertexwise g e)))
      corpus
  in
  let sim = Glql_wl.Partition.group ~n:(List.length sigs) (List.nth sigs) in
  check_bool "partitions equal" true (Glql_wl.Partition.equal cr sim)

let test_fwl2_sim_verdicts () =
  let e g = Wl_sim.fwl2_expr (Rng.create 51) ~label_dim:(Graph.label_dim g) ~rounds:3 ~dim:6 in
  let sig_of g =
    let table = Expr.eval g (e g) in
    Array.to_list table.Expr.tdata
    |> List.map (Glql_util.Sig_hash.of_float_vector ~decimals:9)
    |> List.sort compare
  in
  let c6 = Generators.cycle 6 in
  let c33 = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  check_bool "separates C6 vs 2C3" false (sig_of c6 = sig_of c33);
  check_bool "fooled by SRG pair" true
    (sig_of (Generators.rook_4x4 ()) = sig_of (Generators.shrikhande ()))

(* --- views ---------------------------------------------------------------------------- *)

let test_views_augment () =
  let g = Generators.complete 3 in
  let g' = Views.augment [ Views.triangle_pattern () ] g in
  check_int "label dim grows" 2 (Graph.label_dim g');
  (* hom(K3 rooted, K3) per vertex = 2 (orderings of the other two). *)
  check_float "rooted triangle homs" 2.0 (Graph.label g' 0).(1)

let test_views_lift_power () =
  let c6 = Generators.cycle 6 in
  let c33 = Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3) in
  check_bool "plain CR fooled" true (Cr.equivalent_graphs c6 c33);
  check_bool "view separates" false
    (Views.cr_equivalent_with_view [ Views.triangle_pattern () ] c6 c33)



(* --- optimizer --------------------------------------------------------------- *)

module Optimize = Glql_gel.Optimize

let test_constant_folding () =
  let e = B.add (B.const1 2.0) (B.const1 3.0) in
  (match Optimize.constant_fold e with
  | Expr.Const v -> check_float "folded" 5.0 v.(0)
  | _ -> Alcotest.fail "expected a constant");
  (* Unit rewrites. *)
  let x = B.lab 0 B.x1 in
  (match Optimize.constant_fold (B.scale 1.0 x) with
  | Expr.Lab _ -> ()
  | _ -> Alcotest.fail "scale-by-1 not removed")

let test_sharing_reduces_nodes () =
  (* Build the same degree expression twice without sharing. The two
     builds use distinct aggregator closures, which sharing conservatively
     keeps apart (payloads are compared physically); their constant and
     edge children do merge. Reusing one aggregator object shares fully. *)
  let deg () = B.degree ~x:B.x1 ~y:B.x2 in
  let e = B.add (deg ()) (deg ()) in
  let before = Expr.n_nodes e in
  let shared = Optimize.share e in
  check_int "children merged" 5 (Expr.n_nodes shared);
  check_bool "fewer nodes" true (Expr.n_nodes shared < before);
  let th = Agg.sum 1 in
  let deg' () = Expr.Agg (th, [ B.x2 ], B.const1 1.0, B.edge B.x1 B.x2) in
  let e' = B.add (deg' ()) (deg' ()) in
  check_int "fully shared" 4 (Expr.n_nodes (Optimize.share e'))

let prop_optimize_preserves_semantics =
  qtest ~count:20 "optimize preserves semantics" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of input in
      let rng = Rng.create 77 in
      let exprs =
        [
          Compile_gnn.gnn101_vertex_expr (Compile_gnn.random_gnn101 rng ~in_dim:3 ~width:3 ~depth:2 ~out_dim:3);
          B.two_walks ~x:B.x1 ~y:B.x2;
          B.add (B.degree ~x:B.x1 ~y:B.x2) (B.scale 1.0 (B.degree ~x:B.x1 ~y:B.x2));
        ]
      in
      List.for_all
        (fun e ->
          let e' = Optimize.optimize e in
          let a = Expr.eval_vertexwise g e and b = Expr.eval_vertexwise g e' in
          Expr.n_nodes e' <= Expr.n_nodes e
          && Array.for_all2 (fun u v -> vec_approx ~tol:1e-12 u v) a b)
        exprs)

let test_optimize_keeps_fragment () =
  let e = B.two_walks ~x:B.x1 ~y:B.x2 in
  check_bool "still guarded" true (Expr.is_mpnn (Optimize.optimize e))

let optimizer_cases =
  [
    case "constant folding" test_constant_folding;
    case "sharing reduces nodes" test_sharing_reduces_nodes;
    prop_optimize_preserves_semantics;
    case "optimize keeps fragment" test_optimize_keeps_fragment;
  ]

let suite =
  ( "gel",
    [
      case "func apply" test_func_apply;
      case "func dim check" test_func_dim_check;
      case "agg basics" test_agg_basics;
      case "agg empty bag" test_agg_empty_bag;
      case "static analysis" test_static_analysis;
      case "type errors" test_type_errors;
      case "builder defers validation to use" test_builder_defers_validation;
      case "analyses retain nothing" test_analyses_retain_nothing;
      case "dag node count" test_n_nodes_shared;
      case "to_string" test_to_string;
      case "eval degree" test_eval_degree;
      case "eval two walks" test_eval_two_walks;
      case "eval edge/cmp" test_eval_edge_and_cmp;
      case "eval triangles at" test_eval_triangles_at;
      prop_triangle_count_matches_bruteforce;
      case "common neighbours" test_common_neighbors;
      case "global readout" test_global_readout;
      case "mean/max aggregation" test_mean_max_aggregations;
      case "eval_closed rejects open" test_eval_closed_rejects_open;
      prop_gel_invariance;
      prop_gnn101_compiles;
      prop_gcn_compiles;
      prop_gin_compiles;
      prop_sage_compiles;
      prop_gat_compiles;
      prop_gml_compiler_agrees;
      case "gml compiled is mpnn" test_gml_compiled_is_mpnn;
      prop_normal_form_preserves_semantics;
      case "normal form shape" test_normal_form_expr_shape;
      case "normal form lab beyond the label dimension" test_normal_form_label_beyond_dimension;
      case "separation step" test_separation_step;
      case "normal form rejects mean" test_normal_form_rejects_mean;
      case "normal form rejects GEL3" test_normal_form_rejects_gel3;
      case "cr-sim matches CR" test_cr_sim_matches_cr_partition;
      case "fwl2-sim verdicts" test_fwl2_sim_verdicts;
      case "views augment" test_views_augment;
      case "views lift power" test_views_lift_power;
    ]
    @ optimizer_cases )
