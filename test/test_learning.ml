(* Tests for glql_learning: datasets and ERM trainers. *)

open Helpers
module Rng = Glql_util.Rng
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Gml = Glql_logic.Gml
module Dataset = Glql_learning.Dataset
module Erm = Glql_learning.Erm
module Model = Glql_gnn.Model
module Mlp = Glql_nn.Mlp
module Activation = Glql_nn.Activation

let test_molecules_dataset () =
  let ds = Dataset.molecules (Rng.create 1) ~n_graphs:20 ~n_atoms:8 ~n_atom_types:3 in
  check_int "count" 20 (Array.length ds.Dataset.graphs);
  check_int "labels count" 20 (Array.length ds.Dataset.gc_labels);
  check_int "in_dim" 3 ds.Dataset.gc_in_dim;
  Array.iter (fun g -> check_int "label dim" 3 (Graph.label_dim g)) ds.Dataset.graphs;
  (* Labels are exactly the GML activity property. *)
  Array.iteri
    (fun i g ->
      let active = Array.exists (fun b -> b) (Gml.eval Dataset.activity_property g) in
      check_int "label consistent" (if active then 1 else 0) ds.Dataset.gc_labels.(i))
    ds.Dataset.graphs

let test_datasets_deterministic () =
  let a = Dataset.molecules (Rng.create 9) ~n_graphs:5 ~n_atoms:8 ~n_atom_types:3 in
  let b = Dataset.molecules (Rng.create 9) ~n_graphs:5 ~n_atoms:8 ~n_atom_types:3 in
  check_bool "same labels" true (a.Dataset.gc_labels = b.Dataset.gc_labels);
  check_bool "same structures" true
    (Array.for_all2 Graph.equal_structure a.Dataset.graphs b.Dataset.graphs)

let test_citation_dataset () =
  let ds =
    Dataset.citation (Rng.create 2) ~n_per_class:10 ~n_classes:3 ~feature_noise:0.2
      ~train_fraction:0.3
  in
  check_int "n vertices" 30 (Graph.n_vertices ds.Dataset.graph);
  check_int "in dim" ds.Dataset.nc_in_dim (Graph.label_dim ds.Dataset.graph);
  check_int "labels" 30 (Array.length ds.Dataset.nc_labels);
  check_bool "labels in range" true
    (Array.for_all (fun l -> l >= 0 && l < 3) ds.Dataset.nc_labels)

let test_links_dataset () =
  let ds = Dataset.links (Rng.create 3) ~n_per_class:8 ~n_classes:2 ~n_pairs:40 ~train_fraction:0.5 in
  check_int "pairs" 40 (Array.length ds.Dataset.pairs);
  Array.iter (fun (u, v) -> check_bool "no self pairs" false (u = v)) ds.Dataset.pairs;
  check_bool "targets binary" true
    (Array.for_all (fun t -> t = 0.0 || t = 1.0) ds.Dataset.lp_targets)

let test_regression_targets () =
  check_float "two-walks of star3" (9.0 +. 3.0) (Dataset.two_walk_count (unlabel (Generators.star 3)));
  check_float "triangles K4" 4.0 (Dataset.triangle_count (Generators.complete 4))

let test_regular_generator_cr_homogeneous () =
  let g1 = Dataset.regular_generator ~n:10 ~d:3 (Rng.create 4) in
  let g2 = Dataset.regular_generator ~n:10 ~d:3 (Rng.create 5) in
  check_bool "CR-equivalent corpus" true
    (Glql_wl.Color_refinement.equivalent_graphs (unlabel g1) (unlabel g2))

let test_split () =
  let train, test = Erm.split (Rng.create 6) ~n:10 ~train_fraction:0.7 in
  check_int "train size" 7 (List.length train);
  check_int "test size" 3 (List.length test);
  let all = List.sort compare (train @ test) in
  Alcotest.(check (list int)) "partition of indices" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] all

let losses_decrease history =
  match (history.Erm.losses, List.rev history.Erm.losses) with
  | first :: _, last :: _ -> last < first
  | _ -> false

let test_train_graph_classifier () =
  let rng = Rng.create 7 in
  let ds = Dataset.molecules rng ~n_graphs:24 ~n_atoms:8 ~n_atom_types:3 in
  let train, test = Erm.split rng ~n:24 ~train_fraction:0.75 in
  let model = Model.gin_classifier rng ~in_dim:3 ~width:8 ~depth:2 ~n_classes:2 in
  let h = Erm.train_graph_classifier ~epochs:40 ~lr:0.02 model ds ~train_indices:train ~test_indices:test in
  check_bool "loss decreases" true (losses_decrease h);
  check_bool "fits training data" true (h.Erm.train_metric >= 0.75)

let test_train_node_classifier () =
  let rng = Rng.create 8 in
  let ds = Dataset.citation rng ~n_per_class:12 ~n_classes:2 ~feature_noise:0.2 ~train_fraction:0.4 in
  let model = Model.gcn_node_classifier rng ~in_dim:ds.Dataset.nc_in_dim ~width:8 ~depth:2 ~n_classes:2 in
  let h = Erm.train_node_classifier ~epochs:80 ~lr:0.05 model ds in
  check_bool "loss decreases" true (losses_decrease h);
  check_bool "beats chance on train" true (h.Erm.train_metric > 0.6)

let test_train_feature_classifier () =
  (* Linearly separable toy features. *)
  let rng = Rng.create 9 in
  let n = 60 in
  let features = Array.init n (fun i -> [| (if i mod 2 = 0 then 1.0 else -1.0); Rng.float rng |]) in
  let targets = Array.init n (fun i -> if i mod 2 = 0 then 1.0 else 0.0) in
  let mask = Array.init n (fun i -> i < 40) in
  let head = Mlp.create rng ~sizes:[ 2; 4; 1 ] ~act:Activation.Tanh ~out_act:Activation.Identity in
  let h = Erm.train_feature_classifier ~epochs:150 ~lr:0.05 head ~features ~targets ~mask in
  check_bool "train acc" true (h.Erm.train_metric >= 0.95);
  check_bool "test acc" true (h.Erm.test_metric >= 0.95)

(* With no epochs the head is untrained, so the reported metrics are the
   accuracy of its fixed scores at threshold 0: targets that agree with
   the sign on 2 of 3 masked rows and 1 of 4 unmasked ones give exactly
   2/3 (train) and 1/4 (test). *)
let test_accuracy () =
  let rng = Rng.create 13 in
  let head = Mlp.create rng ~sizes:[ 1; 1 ] ~act:Activation.Identity ~out_act:Activation.Identity in
  let features = Array.init 7 (fun i -> [| float_of_int (i - 3) |]) in
  let agrees = [| true; true; false; true; false; false; false |] in
  let targets =
    Array.mapi
      (fun i f ->
        let positive = (Mlp.apply_vec head f).(0) >= 0.0 in
        if positive = agrees.(i) then 1.0 else 0.0)
      features
  in
  let mask = Array.init 7 (fun i -> i < 3) in
  let h = Erm.train_feature_classifier ~epochs:0 head ~features ~targets ~mask in
  check_int "no epochs" 0 (List.length h.Erm.losses);
  check_float "train accuracy" (2.0 /. 3.0) h.Erm.train_metric;
  check_float "test accuracy" 0.25 h.Erm.test_metric

let test_feature_trainers_honour_deadline () =
  (* The feature trainers check the request deadline once per epoch, so
     a server TRAIN that times out aborts the fit instead of blocking
     the worker for up to 10k epochs. An already-passed deadline must
     raise on the very first epoch. *)
  let rng = Rng.create 12 in
  let n = 8 in
  let features = Array.init n (fun i -> [| float_of_int i |]) in
  let targets = Array.init n (fun i -> if i mod 2 = 0 then 1.0 else 0.0) in
  let mask = Array.make n true in
  let passed = Some (Int64.sub (Glql_util.Clock.now_ns ()) 1L) in
  let head = Mlp.create rng ~sizes:[ 1; 1 ] ~act:Activation.Tanh ~out_act:Activation.Identity in
  Alcotest.check_raises "classifier aborts" Glql_util.Clock.Deadline_exceeded (fun () ->
      ignore
        (Erm.train_feature_classifier ~epochs:5 ~deadline:passed head ~features ~targets ~mask));
  Alcotest.check_raises "regressor aborts" Glql_util.Clock.Deadline_exceeded (fun () ->
      ignore
        (Erm.train_feature_regressor ~epochs:5 ~deadline:passed head ~features ~targets ~mask))

let test_train_graph_regressor () =
  let rng = Rng.create 11 in
  let ds =
    Dataset.regression_corpus rng ~n_graphs:16 ~generator:(Dataset.er_generator ~n:6)
      ~target:(fun g -> float_of_int (Graph.n_edges g) /. 10.0)
      ~target_name:"edge count"
  in
  let model =
    Model.create ~readout:Model.RSum
      ~head:(Mlp.create rng ~sizes:[ 6; 1 ] ~act:Activation.Identity ~out_act:Activation.Identity)
      [ Glql_gnn.Layer.gnn101 rng ~din:1 ~dout:6 ~act:Activation.Tanh ]
  in
  let train, test = Erm.split rng ~n:16 ~train_fraction:0.75 in
  let h = Erm.train_graph_regressor ~epochs:150 ~lr:0.01 model ds ~train_indices:train ~test_indices:test in
  check_bool "loss decreases" true (losses_decrease h);
  (* Edge count is a sum-readout-visible quantity: should fit well. *)
  check_bool "low train mse" true (h.Erm.train_metric < 0.05)

let suite =
  ( "learning",
    [
      case "molecules dataset" test_molecules_dataset;
      case "datasets deterministic" test_datasets_deterministic;
      case "citation dataset" test_citation_dataset;
      case "links dataset" test_links_dataset;
      case "regression targets" test_regression_targets;
      case "regular corpus CR-homogeneous" test_regular_generator_cr_homogeneous;
      case "split" test_split;
      case "train graph classifier" test_train_graph_classifier;
      case "train node classifier" test_train_node_classifier;
      case "train feature classifier" test_train_feature_classifier;
      case "accuracy" test_accuracy;
      case "feature trainers honour the deadline" test_feature_trainers_honour_deadline;
      case "train graph regressor" test_train_graph_regressor;
    ] )
