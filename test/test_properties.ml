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

(* An edge guard drives the join through adjacency rows; wrapping the same
   guard so it is no longer an indicator makes it a materialised table
   that filters a full enumeration. Both must agree. *)
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
      | 1 -> Expr.Const (Vec.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
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
      Mat.rows layered = Array.length reference
      && Array.for_all2 (fun a b -> bits a = bits b)
           (Array.init (Mat.rows layered) (Mat.row layered))
           reference)

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

(* --- the join evaluator against the materialising oracle ------------------------ *)

(* Random GEL expressions of width 1-4 for the differential test: every
   built-in aggregate and a custom, order-sensitive one; indicator guards
   and sum values (products of edge and comparison atoms, E(x,x) and
   1[x=x] included); zero, nonzero and vector guards; label guards; and
   products of an indicator with a non-indicator, which must stay tables. *)
let random_gel_expr rng ~width ~depth =
  let var () = 1 + Rng.int rng width in
  let atom () =
    let x = var () in
    let y = if Rng.int rng 6 = 0 then x else var () in
    match Rng.int rng 4 with
    | 0 | 1 -> Expr.Edge (x, y)
    | 2 -> Expr.Cmp (Expr.Ceq, x, y)
    | _ -> Expr.Cmp (Expr.Cneq, x, y)
  in
  let rec indicator k =
    if k <= 1 then atom () else Expr.Apply (Func.product 1, [ atom (); indicator (k - 1) ])
  in
  let const d =
    Expr.Const
      (Vec.init d (fun _ ->
           match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
  in
  (* Order-sensitive and total on the empty bag, so a visiting-order or
     empty-cell difference changes its result. *)
  let custom d =
    Agg.custom ~name:"horner" ~in_dim:d ~out_dim:d (fun bag ->
        List.fold_left (fun acc v -> Vec.add (Vec.scale 0.5 acc) v) (Vec.create d 7.0) bag)
  in
  let rec gen depth d =
    if d > 1 && Rng.int rng 3 = 0 then Expr.Apply (Func.concat [ 1; d - 1 ], [ gen depth 1; gen depth (d - 1) ])
    else if depth = 0 then
      if d = 1 then
        match Rng.int rng 4 with
        | 0 -> Expr.Lab (Rng.int rng 2, var ())
        | 1 -> atom ()
        | 2 -> indicator 2
        | _ -> const 1
      else const d
    else
      match Rng.int rng 7 with
      | 0 -> Expr.Apply (Func.product d, [ gen (depth - 1) d; gen (depth - 1) d ])
      | 1 -> Expr.Apply (Func.add d, [ gen (depth - 1) d; gen (depth - 1) d ])
      | 2 -> Expr.Apply (Func.scale (Rng.uniform rng ~lo:(-2.0) ~hi:2.0) d, [ gen (depth - 1) d ])
      | 3 -> Expr.Apply (Func.activation Glql_nn.Activation.Relu d, [ gen (depth - 1) d ])
      | _ -> agg depth d
  and agg depth d =
    let ys =
      let vs = Array.init width (fun i -> i + 1) in
      Rng.shuffle rng vs;
      Array.to_list (Array.sub vs 0 (1 + Rng.int rng width))
    in
    let guard () =
      match Rng.int rng 8 with
      | 0 | 1 | 2 -> indicator (1 + Rng.int rng 3)
      | 3 -> Expr.Const [| 0.0 |]
      | 4 -> Expr.Const [| 1.0 |]
      | 5 -> Expr.Apply (Func.concat [ 1; 1 ], [ Expr.Const [| 0.0 |]; indicator 1 ])
      | 6 -> Expr.Apply (Func.product 1, [ indicator 1; gen (depth - 1) 1 ])
      | _ -> gen (depth - 1) 1
    in
    let th, value =
      match Rng.int rng (if d = 1 then 7 else 5) with
      | 0 -> (Agg.sum d, gen (depth - 1) d)
      | 1 -> (Agg.mean d, gen (depth - 1) d)
      | 2 -> (Agg.max d, gen (depth - 1) d)
      | 3 -> (Agg.min d, gen (depth - 1) d)
      | 4 -> (custom d, gen (depth - 1) d)
      | 5 ->
          let dv = 1 + Rng.int rng 2 in
          (Agg.count dv, gen (depth - 1) dv)
      | _ ->
          (* A sum whose value is an indicator, or an indicator times a
             non-indicator. *)
          ( Agg.sum 1,
            if Rng.int rng 2 = 1 then indicator (1 + Rng.int rng 3)
            else Expr.Apply (Func.product 1, [ indicator 2; gen (depth - 1) 1 ]) )
    in
    Expr.Agg (th, ys, value, guard ())
  in
  gen depth (1 + Rng.int rng 2)

(* Graphs for the differential test: n = 1..10 with up to two isolated
   vertices, and two-dimensional labels that now and then hold inf, -inf,
   nan or a signed zero. *)
let random_label_graph rng =
  let n = 1 + Rng.int rng 10 in
  let isolated = Rng.int rng 3 in
  let g0 = Generators.erdos_renyi rng ~n ~p:(Rng.float rng) in
  let n' = n + isolated in
  let label () =
    match Rng.int rng 12 with
    | 0 -> Float.infinity
    | 1 -> Float.neg_infinity
    | 2 -> Float.nan
    | 3 -> -0.0
    | 4 -> 0.0
    | _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0
  in
  Graph.create ~n:n' ~edges:(Graph.edges g0) ~labels:(Array.init n' (fun _ -> Vec.init 2 (fun _ -> label ())))

let same_table (a : Expr.table) (b : Expr.table) =
  let bits v = Array.map Int64.bits_of_float v in
  a.Expr.tvars = b.Expr.tvars && a.Expr.tn = b.Expr.tn && a.Expr.tdim = b.Expr.tdim
  && Array.length a.Expr.tdata = Array.length b.Expr.tdata
  && Array.for_all2 (fun u v -> bits u = bits v) a.Expr.tdata b.Expr.tdata

let gel_case_arb =
  QCheck.make
    ~print:(fun (seed, width, depth) -> Printf.sprintf "expr(seed=%d,width=%d,depth=%d)" seed width depth)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 4) (int_range 1 3))

let prop_join_eval_bit_exact =
  qtest ~count:1000 "join eval = materialising oracle, bit for bit" gel_case_arb
    (fun (seed, width, depth) ->
      let rng = Rng.create seed in
      let e = random_gel_expr rng ~width ~depth in
      let g = random_label_graph rng in
      same_table (Expr.eval g e) (Expr_oracle.eval g e))

(* Ill-formed expressions: a well-formed one with one fault planted at
   the root or inside an aggregation. Both evaluators must reject it. *)
let prop_join_eval_type_errors =
  qtest ~count:200 "join eval and oracle reject ill-formed expressions" gel_case_arb
    (fun (seed, width, depth) ->
      let rng = Rng.create seed in
      let e = random_gel_expr rng ~width ~depth in
      let g = random_label_graph rng in
      let bad =
        match Rng.int rng 7 with
        | 0 -> Expr.Apply (Func.product 1, [ e; Expr.Const [| 1.0; 2.0 |] ])
        | 1 -> Expr.Agg (Agg.sum 1, [ 1; 1 ], e, Expr.Edge (1, 2))
        | 2 -> Expr.Agg (Agg.sum 1, [], e, Expr.Edge (1, 2))
        | 3 -> Expr.Agg (Agg.sum 3, [ 1 ], Expr.Const [| 1.0 |], e)
        | 4 -> Expr.Agg (Agg.sum 1, [ 2 ], Expr.Const [| 1.0 |], Expr.Apply (Func.product 1, [ e; Expr.Edge (0, 2) ]))
        | 5 -> Expr.Apply (Func.add 1, [ e; Expr.Lab (7, 1) ])
        | _ -> Expr.Agg (Agg.count 1, [ 1 ], Expr.Apply (Func.product 1, [ Expr.Edge (1, 2); Expr.Cmp (Expr.Ceq, 2, -1) ]), e)
      in
      let rejects f = match f () with _ -> false | exception Expr.Type_error _ -> true in
      rejects (fun () -> Expr.eval g bad) && rejects (fun () -> Expr_oracle.eval g bad))

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
      prop_join_eval_bit_exact;
      prop_join_eval_type_errors;
      prop_path_homs_equal_under_cr;
    ] )
