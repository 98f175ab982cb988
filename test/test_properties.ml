(* Cross-cutting property tests: relationships *between* the subsystems
   (WL variants, evaluator paths, optimizer/normal-form on randomly
   generated expressions, CFI ground truths). *)

open Helpers
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Iso = Glql_graph.Iso
module Cfi = Glql_graph.Cfi
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Partition = Glql_wl.Partition
module Expr = Glql_gel.Expr
module Func = Glql_gel.Func
module Agg = Glql_gel.Agg
module B = Glql_gel.Builder
module Optimize = Glql_gel.Optimize
module Normal_form = Glql_gel.Normal_form
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat

(* --- WL variant relationships ------------------------------------------------ *)

let prop_folklore_refines_oblivious =
  qtest ~count:15 "2-FWL refines 2-OWL" (graph_arbitrary ~min_n:2 ~max_n:6 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      (* Folklore separating less than oblivious would violate the known
         ordering: if 2-FWL says equivalent, 2-OWL must as well. *)
      (not (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Folklore g h))
      || Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Oblivious g h)

let prop_2owl_refines_cr =
  qtest ~count:15 "2-OWL refines CR" (graph_arbitrary ~min_n:2 ~max_n:6 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      (not (Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Oblivious g h)) || Cr.equivalent_graphs g h)

let prop_oblivious_invariant =
  qtest ~count:12 "2-OWL invariant under isomorphism" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      Kwl.equivalent_graphs ~k:2 ~variant:Kwl.Oblivious g h)

let test_cfi_k4_ground_truth () =
  let a, b = Cfi.pair (Generators.complete 4) in
  check_bool "CR fooled" true (Cr.equivalent_graphs a b);
  check_bool "non-isomorphic" false (Iso.are_isomorphic a b)

(* --- evaluator paths ----------------------------------------------------------- *)

(* The guarded aggregation takes an adjacency fast path; wrapping the same
   guard so it is no longer syntactically an edge atom forces the generic
   path. Both must agree. *)
let prop_fast_path_equals_generic =
  qtest ~count:25 "edge-guard fast path = generic path" (graph_arbitrary ~min_n:1 ~max_n:7 ())
    (fun input ->
      let g = graph_of input in
      let value = B.lab 0 B.x2 in
      let fast = Expr.Agg (Agg.sum 1, [ B.x2 ], value, B.edge B.x1 B.x2) in
      let wrapped_guard = Expr.Apply (Func.scale 1.0 1, [ B.edge B.x1 B.x2 ]) in
      let generic = Expr.Agg (Agg.sum 1, [ B.x2 ], value, wrapped_guard) in
      let a = Expr.eval_vertexwise g fast and b = Expr.eval_vertexwise g generic in
      Array.for_all2 (fun u v -> vec_approx u v) a b)

(* Nonzero-anywhere guard semantics: a guard vector with one nonzero
   component admits the assignment. *)
let test_guard_nonzero_semantics () =
  let g = Generators.path 3 in
  let guard = B.concat [ B.const1 0.0; B.edge B.x1 B.x2 ] in
  let e = Expr.Agg (Agg.sum 1, [ B.x2 ], B.const1 1.0, guard) in
  let v = Expr.eval_vertexwise g e in
  check_float "degree via vector guard" 2.0 v.(1).(0)

(* --- random guarded expressions ------------------------------------------------ *)

(* Generator for random MPNN(Omega, sum) expressions over two variables,
   used to fuzz the optimizer and the normal-form transformation. *)
let random_mpnn_expr rng ~label_dim ~depth =
  let rec go depth x y =
    let d = 1 + Rng.int rng 2 in
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 -> B.lab (Rng.int rng label_dim) x
      | 1 -> B.const (Vec.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
      | _ -> B.degree ~x ~y
    else
      match Rng.int rng 5 with
      | 0 ->
          let a = go (depth - 1) x y in
          B.linear
            (Mat.gaussian rng (Expr.dim a) d ~stddev:0.7)
            (Vec.gaussian rng d ~stddev:0.3) a
      | 1 ->
          let a = go (depth - 1) x y in
          let b = go (depth - 1) x y in
          B.concat [ a; b ]
      | 2 ->
          let a = go (depth - 1) x y in
          let b = go (depth - 1) x y in
          let da = Expr.dim a and db = Expr.dim b in
          if da = db then B.add a b else B.concat [ a; b ]
      | 3 ->
          let a = go (depth - 1) x y in
          B.scale (Rng.uniform rng ~lo:(-2.0) ~hi:2.0) a
      | _ ->
          (* Neighbourhood sum of an inner expression over the swapped
             variable pair. *)
          let inner = go (depth - 1) y x in
          B.sum_neighbors ~x ~y inner
  in
  let body = go depth B.x1 B.x2 in
  (* A constant-only draw is closed; anchor the top level to x1. *)
  if Expr.free_vars body = [ B.x1 ] then body else B.concat [ B.lab 0 B.x1; body ]

let expr_arb =
  QCheck.make
    ~print:(fun (seed, depth) -> Printf.sprintf "expr(seed=%d,depth=%d)" seed depth)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 4))

let prop_random_exprs_are_guarded =
  qtest ~count:40 "random expressions are in the MPNN fragment" expr_arb (fun (seed, depth) ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth in
      Expr.is_mpnn e && Expr.free_vars e = [ B.x1 ])

let prop_optimizer_on_random_exprs =
  qtest ~count:30 "optimizer preserves random expressions" expr_arb (fun (seed, depth) ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth in
      let e' = Optimize.optimize e in
      let g = labelled_graph_of ~n_colors:2 (seed, 6, 50) in
      let a = Expr.eval_vertexwise g e and b = Expr.eval_vertexwise g e' in
      Expr.n_nodes e' <= Expr.n_nodes e
      && Array.for_all2 (fun u v -> vec_approx ~tol:1e-9 u v) a b)

let prop_normal_form_on_random_exprs =
  qtest ~count:25 "normal form preserves random expressions" expr_arb (fun (seed, depth) ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth in
      let g = labelled_graph_of ~n_colors:2 (seed + 1, 6, 50) in
      match Normal_form.of_vertex_expr e with
      | nf -> Normal_form.max_deviation nf e g < 1e-9
      | exception Normal_form.Unsupported _ ->
          (* The generator only emits sum aggregations and foldable
             function kinds, so separation must always succeed. *)
          false)

(* The layered evaluator against [Expr.eval] of the exported normal-form
   expression, bit for bit: the in-place rounds must perform the same
   float operations in the same order as the full-width layers. Graphs
   carry random real labels and up to two extra isolated vertices, from
   n = 1 up. *)
let prop_normal_form_eval_bit_exact =
  let arb =
    QCheck.make
      ~print:(fun ((seed, depth), (n, density, isolated)) ->
        Printf.sprintf "expr(seed=%d,depth=%d) graph(n=%d,density=%d%%,isolated=%d)" seed depth n
          density isolated)
      QCheck.Gen.(
        pair
          (pair (int_bound 1_000_000) (int_range 1 4))
          (triple (int_range 1 8) (int_range 0 100) (int_range 0 2)))
  in
  qtest ~count:200 "layered eval = eval of the normal form, bit for bit" arb
    (fun ((seed, depth), (n, density, isolated)) ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth in
      let nf = Normal_form.of_vertex_expr e in
      let rng = Rng.create (seed + 3) in
      let g0 = graph_of (seed + 1, n, density) in
      let g =
        Graph.create ~n:(n + isolated) ~edges:(Graph.edges g0)
          ~labels:
            (Array.init (n + isolated) (fun _ ->
                 Vec.init 2 (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)))
      in
      let bits v = Array.map Int64.bits_of_float v in
      let layered = Normal_form.eval nf g in
      let reference = Expr.eval_vertexwise g (Normal_form.to_expr nf) in
      Array.length layered = Array.length reference
      && Array.for_all2 (fun a b -> bits a = bits b) layered reference)

let prop_random_exprs_invariant =
  qtest ~count:20 "random expressions are invariant" expr_arb (fun (seed, depth) ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth in
      let input = (seed + 2, 6, 50) in
      let g = labelled_graph_of ~n_colors:2 input in
      let perm = permutation_of input in
      let h = Graph.permute g perm in
      let a = Expr.eval_vertexwise g e and b = Expr.eval_vertexwise h e in
      let ok = ref true in
      Array.iteri (fun v value -> if not (vec_approx ~tol:1e-9 value b.(perm.(v))) then ok := false) a;
      !ok)

(* --- hom / WL interaction -------------------------------------------------------- *)

let prop_path_homs_equal_under_cr =
  qtest ~count:15 "CR-equivalent graphs have equal path counts"
    (graph_arbitrary ~min_n:2 ~max_n:7 ()) (fun input ->
      let seed, n, density = input in
      let g = graph_of (seed, n, density) in
      let h = graph_of (seed + 1, n, density) in
      (not (Cr.equivalent_graphs g h))
      || List.for_all
           (fun k -> Glql_hom.Count.hom (Generators.path k) g = Glql_hom.Count.hom (Generators.path k) h)
           [ 2; 3; 4; 5 ])

let suite =
  ( "properties",
    [
      prop_folklore_refines_oblivious;
      prop_2owl_refines_cr;
      prop_oblivious_invariant;
      case "CFI(K4) ground truth" test_cfi_k4_ground_truth;
      prop_fast_path_equals_generic;
      case "vector guard semantics" test_guard_nonzero_semantics;
      prop_random_exprs_are_guarded;
      prop_optimizer_on_random_exprs;
      prop_normal_form_on_random_exprs;
      prop_normal_form_eval_bit_exact;
      prop_random_exprs_invariant;
      prop_path_homs_equal_under_cr;
    ] )
