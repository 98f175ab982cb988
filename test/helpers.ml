(* Shared test utilities: QCheck generators for graphs and the glue that
   registers QCheck properties as alcotest cases. *)

module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators

let qtest ?(count = 50) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

let case name f = Alcotest.test_case name `Quick f

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

let check_float name ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) name expected actual

(* Value of a GEL expression on one tuple of vertices, components in
   sorted free-variable order. *)
let eval_at g e tuple =
  let t = Glql_gel.Expr.eval g e in
  let env = Array.make (List.fold_left max 1 t.Glql_gel.Expr.tvars + 1) 0 in
  List.iteri (fun i v -> env.(v) <- tuple.(i)) t.Glql_gel.Expr.tvars;
  Glql_gel.Expr.table_get t env

(* Random unlabelled graph described by (seed, n, edge density in %). *)
let graph_arbitrary ?(min_n = 1) ?(max_n = 10) () =
  let gen =
    QCheck.Gen.(
      map3
        (fun seed n density -> (seed, n, density))
        (int_bound 1_000_000) (int_range min_n max_n) (int_range 0 100))
  in
  let print (seed, n, density) = Printf.sprintf "graph(seed=%d,n=%d,density=%d%%)" seed n density in
  QCheck.make ~print gen

let graph_of (seed, n, density) =
  let rng = Rng.create seed in
  Generators.erdos_renyi rng ~n ~p:(float_of_int density /. 100.0)

(* Random labelled graph: colours from a small alphabet, one-hot encoded. *)
let labelled_graph_of ?(n_colors = 3) (seed, n, density) =
  let g = graph_of (seed, n, density) in
  let rng = Rng.create (seed + 7) in
  let colors = Array.init n (fun _ -> Rng.int rng n_colors) in
  Graph.with_one_hot_labels g colors ~n_colors

(* A random permutation of the graph's vertices, derived from the seed. *)
let permutation_of (seed, n, _) = Graph.random_permutation (Rng.create (seed + 13)) n

let vec_approx ?(tol = 1e-9) a b = Glql_tensor.Vec.equal_approx ~tol a b

(* Reset labels to the uniform all-ones labelling. *)
let unlabel g = Graph.with_labels g (Array.make (Graph.n_vertices g) [| 1.0 |])
