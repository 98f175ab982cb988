(* Tests for glql_gnn: propagation primitives, layers (with gradient
   checks through the graph structure), models and their invariance. *)

open Helpers
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Propagate = Glql_gnn.Propagate
module Layer = Glql_gnn.Layer
module Model = Glql_gnn.Model
module Param = Glql_nn.Param
module Mlp = Glql_nn.Mlp
module Activation = Glql_nn.Activation

let small_graph () =
  (* Path 0-1-2 plus pendant 1-3. *)
  Graph.unlabelled ~n:4 ~edges:[ (0, 1); (1, 2); (1, 3) ]

let features () = Mat.of_rows [ [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 2.0; 2.0 |]; [| -1.0; 3.0 |] ]

let test_sum_neighbors () =
  let g = small_graph () in
  let out = Propagate.sum_neighbors g (features ()) in
  check_bool "vertex 0 = h1" true (Mat.row out 0 = [| 0.0; 1.0 |]);
  check_bool "vertex 1 = h0+h2+h3" true (Mat.row out 1 = [| 2.0; 5.0 |]);
  check_bool "vertex 2 = h1" true (Mat.row out 2 = [| 0.0; 1.0 |])

let test_mean_neighbors () =
  let g = small_graph () in
  let out = Propagate.mean_neighbors g (features ()) in
  check_bool "vertex 1 mean" true
    (vec_approx (Mat.row out 1) [| 2.0 /. 3.0; 5.0 /. 3.0 |])

let test_mean_isolated () =
  let g = Graph.unlabelled ~n:2 ~edges:[] in
  let out = Propagate.mean_neighbors g (Mat.of_rows [ [| 1.0 |]; [| 2.0 |] ]) in
  check_bool "isolated zero" true (Mat.row out 0 = [| 0.0 |])

let test_max_neighbors () =
  let g = small_graph () in
  let out, arg = Propagate.max_neighbors g (features ()) in
  check_bool "vertex 1 max" true (Mat.row out 1 = [| 2.0; 3.0 |]);
  check_int "argmax col 0" 2 arg.(1).(0);
  check_int "argmax col 1" 3 arg.(1).(1)

let test_sum_self_adjoint () =
  (* <A x, y> = <x, A y> for the undirected adjacency operator. *)
  let g = Generators.petersen () in
  let rng = Rng.create 4 in
  let x = Mat.gaussian rng 10 3 ~stddev:1.0 in
  let y = Mat.gaussian rng 10 3 ~stddev:1.0 in
  let dot a b =
    let acc = ref 0.0 in
    for i = 0 to Mat.rows a - 1 do
      for j = 0 to Mat.cols a - 1 do
        acc := !acc +. (Mat.get a i j *. Mat.get b i j)
      done
    done;
    !acc
  in
  check_float ~eps:1e-9 "self adjoint" (dot (Propagate.sum_neighbors g x) y)
    (dot x (Propagate.sum_neighbors g y));
  check_float ~eps:1e-9 "gcn self adjoint" (dot (Propagate.gcn_neighbors g x) y)
    (dot x (Propagate.gcn_neighbors g y))

let test_mean_adjoint () =
  let g = small_graph () in
  let rng = Rng.create 5 in
  let x = Mat.gaussian rng 4 2 ~stddev:1.0 in
  let y = Mat.gaussian rng 4 2 ~stddev:1.0 in
  let dot a b =
    let acc = ref 0.0 in
    for i = 0 to Mat.rows a - 1 do
      for j = 0 to Mat.cols a - 1 do
        acc := !acc +. (Mat.get a i j *. Mat.get b i j)
      done
    done;
    !acc
  in
  check_float ~eps:1e-9 "mean adjoint" (dot (Propagate.mean_neighbors g x) y)
    (dot x (Propagate.mean_neighbors_backward g y))

(* Scalar loss for gradient checks: weighted sum of the layer output. *)
let layer_loss g layer x =
  let y, _ = Layer.forward_cached g layer x in
  let acc = ref 0.0 in
  for i = 0 to Mat.rows y - 1 do
    for j = 0 to Mat.cols y - 1 do
      acc := !acc +. (Mat.get y i j *. float_of_int (((i * 3) + j) mod 4))
    done
  done;
  !acc

let layer_dout y = Mat.init (Mat.rows y) (Mat.cols y) (fun i j -> float_of_int (((i * 3) + j) mod 4))

let gradient_check_layer name make =
  let g = small_graph () in
  let rng = Rng.create 11 in
  let layer = make rng in
  let x = Mat.gaussian rng 4 2 ~stddev:1.0 in
  let y, cache = Layer.forward_cached g layer x in
  let dx = Layer.backward g layer cache ~dout:(layer_dout y) in
  List.iter
    (fun (p : Param.t) ->
      for i = 0 to Mat.rows p.Param.data - 1 do
        for j = 0 to Mat.cols p.Param.data - 1 do
          let h = 1e-5 in
          let orig = Mat.get p.Param.data i j in
          Mat.set p.Param.data i j (orig +. h);
          let up = layer_loss g layer x in
          Mat.set p.Param.data i j (orig -. h);
          let down = layer_loss g layer x in
          Mat.set p.Param.data i j orig;
          let fd = (up -. down) /. (2.0 *. h) in
          if Float.abs (fd -. Mat.get p.Param.grad i j) > 1e-3 *. (1.0 +. Float.abs fd) then
            Alcotest.failf "%s: param %s grad mismatch (%g vs %g)" name p.Param.name
              (Mat.get p.Param.grad i j) fd
        done
      done)
    (Layer.params layer);
  for i = 0 to Mat.rows x - 1 do
    for j = 0 to Mat.cols x - 1 do
      let h = 1e-5 in
      let orig = Mat.get x i j in
      Mat.set x i j (orig +. h);
      let up = layer_loss g layer x in
      Mat.set x i j (orig -. h);
      let down = layer_loss g layer x in
      Mat.set x i j orig;
      let fd = (up -. down) /. (2.0 *. h) in
      if Float.abs (fd -. Mat.get dx i j) > 1e-3 *. (1.0 +. Float.abs fd) then
        Alcotest.failf "%s: input grad mismatch at (%d,%d): %g vs %g" name i j (Mat.get dx i j) fd
    done
  done

let test_layer_gradients () =
  gradient_check_layer "gnn101" (fun rng -> Layer.gnn101 rng ~din:2 ~dout:3 ~act:Activation.Tanh);
  gradient_check_layer "gcn" (fun rng -> Layer.gcn rng ~din:2 ~dout:3 ~act:Activation.Sigmoid);
  gradient_check_layer "gin" (fun rng -> Layer.gin rng ~din:2 ~dout:3 ~hidden:4 ~eps:0.2);
  gradient_check_layer "sage-sum" (fun rng ->
      Layer.sage rng ~din:2 ~dout:3 ~agg:Layer.Sum ~act:Activation.Tanh);
  gradient_check_layer "sage-mean" (fun rng ->
      Layer.sage rng ~din:2 ~dout:3 ~agg:Layer.Mean ~act:Activation.Tanh);
  gradient_check_layer "sage-max" (fun rng ->
      Layer.sage rng ~din:2 ~dout:3 ~agg:Layer.Max ~act:Activation.Tanh)

let test_gat_forward_only () =
  let rng = Rng.create 3 in
  let layer = Layer.gat rng ~din:2 ~dout:3 ~act:Activation.Identity in
  let g = small_graph () in
  let y, _ = Layer.forward_cached g layer (features ()) in
  check_int "output shape" 3 (Mat.cols y)

(* Model invariance (slide 11): graph embeddings agree on isomorphic
   graphs; vertex embeddings are equivariant. *)
let make_model rng readout =
  Model.create ~readout
    ~head:(Mlp.create rng ~sizes:[ 4; 3 ] ~act:Activation.Tanh ~out_act:Activation.Identity)
    [
      Layer.gnn101 rng ~din:3 ~dout:4 ~act:Activation.Sigmoid;
      Layer.gin rng ~din:4 ~dout:4 ~hidden:4 ~eps:0.1;
    ]

let prop_graph_embedding_invariant =
  qtest ~count:25 "graph embedding invariant" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let h = Graph.permute g (permutation_of input) in
      let rng = Rng.create 9 in
      List.for_all
        (fun readout ->
          let model = make_model (Glql_util.Rng.copy rng) readout in
          vec_approx ~tol:1e-9 (Model.graph_embedding model g) (Model.graph_embedding model h))
        [ Model.RSum; Model.RMean; Model.RMax ])

let prop_vertex_embedding_equivariant =
  qtest ~count:25 "vertex embedding equivariant" (graph_arbitrary ~max_n:8 ()) (fun input ->
      let g = labelled_graph_of input in
      let perm = permutation_of input in
      let h = Graph.permute g perm in
      let rng = Rng.create 10 in
      let model =
        Model.create [ Layer.gnn101 rng ~din:3 ~dout:4 ~act:Activation.Sigmoid ]
      in
      let eg = Model.vertex_embeddings model g in
      let eh = Model.vertex_embeddings model h in
      let ok = ref true in
      for v = 0 to Graph.n_vertices g - 1 do
        if not (vec_approx ~tol:1e-9 (Mat.row eg v) (Mat.row eh perm.(v))) then ok := false
      done;
      !ok)

(* End-to-end gradient check through model + readout + head. *)
let test_model_graph_gradient () =
  let g = small_graph () in
  let g = Graph.with_one_hot_labels g [| 0; 1; 2; 0 |] ~n_colors:3 in
  List.iter
    (fun readout ->
      let rng = Rng.create 21 in
      let model = make_model rng readout in
      let out, cache = Model.forward_graph_cached model g in
      let dout = Vec.init (Vec.dim out) (fun i -> float_of_int (i + 1)) in
      Model.backward_graph model g cache ~dout;
      let loss () =
        let o = Model.graph_embedding model g in
        let acc = ref 0.0 in
        Array.iteri (fun i x -> acc := !acc +. (x *. float_of_int (i + 1))) o;
        !acc
      in
      List.iter
        (fun (p : Param.t) ->
          for i = 0 to Mat.rows p.Param.data - 1 do
            for j = 0 to Mat.cols p.Param.data - 1 do
              let h = 1e-5 in
              let orig = Mat.get p.Param.data i j in
              Mat.set p.Param.data i j (orig +. h);
              let up = loss () in
              Mat.set p.Param.data i j (orig -. h);
              let down = loss () in
              Mat.set p.Param.data i j orig;
              let fd = (up -. down) /. (2.0 *. h) in
              if Float.abs (fd -. Mat.get p.Param.grad i j) > 1e-3 *. (1.0 +. Float.abs fd) then
                Alcotest.failf "model(%s) param %s grad mismatch (%g vs %g)"
                  (match readout with Model.RSum -> "sum" | Model.RMean -> "mean" | Model.RMax -> "max")
                  p.Param.name (Mat.get p.Param.grad i j) fd
            done
          done;
          Param.zero_grad p)
        (Model.params model))
    [ Model.RSum; Model.RMean; Model.RMax ]

(* A model with no layers and no head embeds each vertex as its label
   row: the initial features every layer stack starts from. *)
let test_initial_features () =
  let g = Graph.with_one_hot_labels (Generators.path 2) [| 1; 0 |] ~n_colors:2 in
  let f = Model.vertex_embeddings (Model.create []) g in
  check_bool "row 0" true (Mat.row f 0 = [| 0.0; 1.0 |]);
  check_bool "row 1" true (Mat.row f 1 = [| 1.0; 0.0 |])

let test_stock_models () =
  let rng = Rng.create 31 in
  let g = Graph.with_one_hot_labels (Generators.cycle 5) [| 0; 1; 0; 1; 0 |] ~n_colors:2 in
  let gin = Model.gin_classifier rng ~in_dim:2 ~width:6 ~depth:2 ~n_classes:3 in
  check_int "gin logits" 3 (Vec.dim (Model.graph_embedding gin g));
  let gcn = Model.gcn_node_classifier rng ~in_dim:2 ~width:6 ~depth:2 ~n_classes:4 in
  let logits = Model.vertex_embeddings gcn g in
  check_int "gcn rows" 5 (Mat.rows logits);
  check_int "gcn cols" 4 (Mat.cols logits)

let suite =
  ( "gnn",
    [
      case "sum neighbors" test_sum_neighbors;
      case "mean neighbors" test_mean_neighbors;
      case "mean isolated" test_mean_isolated;
      case "max neighbors" test_max_neighbors;
      case "sum/gcn self-adjoint" test_sum_self_adjoint;
      case "mean adjoint" test_mean_adjoint;
      case "layer gradient checks" test_layer_gradients;
      case "gat forward only" test_gat_forward_only;
      prop_graph_embedding_invariant;
      prop_vertex_embedding_equivariant;
      case "model graph gradient" test_model_graph_gradient;
      case "initial features" test_initial_features;
      case "stock models" test_stock_models;
    ] )
