(* Tests for glql_nn: activations, MLPs with gradient checks, losses,
   optimizers. *)

open Helpers
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Rng = Glql_util.Rng
module Activation = Glql_nn.Activation
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param
module Loss = Glql_nn.Loss
module Optim = Glql_nn.Optim

let all_smooth = [ Activation.Sigmoid; Activation.Tanh; Activation.Identity ]

let all_acts =
  Activation.[ Relu; Sigmoid; Tanh; Identity; Sign; Trunc_relu; Leaky_relu ]

let test_activation_values () =
  check_float "relu(-1)" 0.0 (Activation.apply Activation.Relu (-1.0));
  check_float "relu(2)" 2.0 (Activation.apply Activation.Relu 2.0);
  check_float "sigmoid(0)" 0.5 (Activation.apply Activation.Sigmoid 0.0);
  check_float "trunc(2)" 1.0 (Activation.apply Activation.Trunc_relu 2.0);
  check_float "trunc(0.3)" 0.3 (Activation.apply Activation.Trunc_relu 0.3);
  check_float "sign(-3)" (-1.0) (Activation.apply Activation.Sign (-3.0));
  check_float "leaky(-1)" (-0.01) (Activation.apply Activation.Leaky_relu (-1.0))

(* Finite-difference check of activation derivatives at generic points. *)
let prop_activation_derivatives =
  qtest ~count:40 "activation derivative = finite difference"
    QCheck.(pair (int_bound 6) (float_range (-3.0) 3.0))
    (fun (which, x) ->
      let act = List.nth all_acts which in
      (* Skip points near the kinks of the piecewise activations. *)
      let near_kink = Float.abs x < 0.02 || Float.abs (x -. 1.0) < 0.02 in
      if near_kink then true
      else begin
        let h = 1e-6 in
        let fd =
          (Activation.apply act (x +. h) -. Activation.apply act (x -. h)) /. (2.0 *. h)
        in
        (* Sign has derivative 0 away from 0, like the others at plateaus. *)
        Float.abs (fd -. Activation.derivative act x) < 1e-4
      end)

let test_mlp_shapes () =
  let rng = Rng.create 1 in
  let m = Mlp.create rng ~sizes:[ 3; 5; 2 ] ~act:Activation.Tanh ~out_act:Activation.Identity in
  check_int "in_dim" 3 (Mlp.in_dim m);
  check_int "out_dim" 2 (Mlp.out_dim m);
  check_int "params" 4 (List.length (Mlp.params m));
  let y = Mlp.forward m (Mat.zeros 4 3) in
  check_int "batch rows" 4 (Mat.rows y);
  check_int "batch cols" 2 (Mat.cols y)

(* Gradient check: dL/dparam from backward equals finite differences of a
   scalar loss L = sum(output). *)
let mlp_loss m x =
  let y = Mlp.forward m x in
  let acc = ref 0.0 in
  for i = 0 to Mat.rows y - 1 do
    for j = 0 to Mat.cols y - 1 do
      acc := !acc +. (Mat.get y i j *. float_of_int ((i + (2 * j)) mod 3))
    done
  done;
  !acc

let dloss_dy y =
  Mat.init (Mat.rows y) (Mat.cols y) (fun i j -> float_of_int ((i + (2 * j)) mod 3))

let test_mlp_gradient_check () =
  List.iter
    (fun act ->
      let rng = Rng.create 7 in
      let m = Mlp.create rng ~sizes:[ 3; 4; 2 ] ~act ~out_act:Activation.Identity in
      let x = Mat.gaussian rng 5 3 ~stddev:1.0 in
      let y, cache = Mlp.forward_cached m x in
      let dx = Mlp.backward m cache ~dout:(dloss_dy y) in
      (* Parameter gradients. *)
      List.iter
        (fun (p : Param.t) ->
          let rows = Mat.rows p.Param.data and cols = Mat.cols p.Param.data in
          for i = 0 to rows - 1 do
            for j = 0 to cols - 1 do
              let h = 1e-5 in
              let orig = Mat.get p.Param.data i j in
              Mat.set p.Param.data i j (orig +. h);
              let up = mlp_loss m x in
              Mat.set p.Param.data i j (orig -. h);
              let down = mlp_loss m x in
              Mat.set p.Param.data i j orig;
              let fd = (up -. down) /. (2.0 *. h) in
              let analytic = Mat.get p.Param.grad i j in
              if Float.abs (fd -. analytic) > 1e-3 *. (1.0 +. Float.abs fd) then
                Alcotest.failf "param %s grad mismatch (%g vs %g)" p.Param.name analytic fd
            done
          done)
        (Mlp.params m);
      (* Input gradient. *)
      for i = 0 to Mat.rows x - 1 do
        for j = 0 to Mat.cols x - 1 do
          let h = 1e-5 in
          let orig = Mat.get x i j in
          Mat.set x i j (orig +. h);
          let up = mlp_loss m x in
          Mat.set x i j (orig -. h);
          let down = mlp_loss m x in
          Mat.set x i j orig;
          let fd = (up -. down) /. (2.0 *. h) in
          if Float.abs (fd -. Mat.get dx i j) > 1e-3 *. (1.0 +. Float.abs fd) then
            Alcotest.failf "input grad mismatch at (%d,%d)" i j
        done
      done)
    all_smooth

let test_mse () =
  let pred = Mat.of_rows [ [| 1.0; 2.0 |] ] in
  let target = Mat.of_rows [ [| 0.0; 4.0 |] ] in
  let loss, grad = Loss.mse ~pred ~target in
  check_float "loss" 2.5 loss;
  check_float "grad0" 1.0 (Mat.get grad 0 0);
  check_float "grad1" (-2.0) (Mat.get grad 0 1)

let test_cross_entropy_uniform () =
  let logits = Mat.zeros 1 4 in
  let loss, grad = Loss.softmax_cross_entropy ~logits ~labels:[| 2 |] in
  check_float "loss = log 4" (log 4.0) loss;
  check_float "grad wrong class" 0.25 (Mat.get grad 0 0);
  check_float "grad right class" (-0.75) (Mat.get grad 0 2)

let test_cross_entropy_gradient () =
  let rng = Rng.create 3 in
  let logits = Mat.gaussian rng 3 4 ~stddev:1.0 in
  let labels = [| 1; 3; 0 |] in
  let _, grad = Loss.softmax_cross_entropy ~logits ~labels in
  let h = 1e-5 in
  for i = 0 to 2 do
    for j = 0 to 3 do
      let orig = Mat.get logits i j in
      Mat.set logits i j (orig +. h);
      let up, _ = Loss.softmax_cross_entropy ~logits ~labels in
      Mat.set logits i j (orig -. h);
      let down, _ = Loss.softmax_cross_entropy ~logits ~labels in
      Mat.set logits i j orig;
      let fd = (up -. down) /. (2.0 *. h) in
      if Float.abs (fd -. Mat.get grad i j) > 1e-4 then
        Alcotest.failf "ce grad mismatch at (%d,%d)" i j
    done
  done

let test_binary_cross_entropy_gradient () =
  let logits = Mat.of_rows [ [| 0.7 |]; [| -1.2 |] ] in
  let targets = [| 1.0; 0.0 |] in
  let _, grad = Loss.binary_cross_entropy ~logits ~targets in
  let h = 1e-5 in
  for i = 0 to 1 do
    let orig = Mat.get logits i 0 in
    Mat.set logits i 0 (orig +. h);
    let up, _ = Loss.binary_cross_entropy ~logits ~targets in
    Mat.set logits i 0 (orig -. h);
    let down, _ = Loss.binary_cross_entropy ~logits ~targets in
    Mat.set logits i 0 orig;
    let fd = (up -. down) /. (2.0 *. h) in
    if Float.abs (fd -. Mat.get grad i 0) > 1e-4 then Alcotest.failf "bce grad mismatch at %d" i
  done

(* Optimizers minimise a simple quadratic: L(w) = sum (w - 3)^2. *)
let quadratic_step opt p =
  for i = 0 to Mat.rows p.Param.data - 1 do
    for j = 0 to Mat.cols p.Param.data - 1 do
      Mat.set p.Param.grad i j (2.0 *. (Mat.get p.Param.data i j -. 3.0))
    done
  done;
  Optim.step opt [ p ]

let test_adam_converges () =
  let p = Param.create ~name:"w" (Mat.zeros 2 2) in
  let opt = Optim.adam ~lr:0.1 () in
  for _ = 1 to 500 do
    quadratic_step opt p
  done;
  check_bool "close to 3" true (Float.abs (Mat.get p.Param.data 0 0 -. 3.0) < 1e-3)

let test_step_zeroes_grads () =
  let p = Param.create ~name:"w" (Mat.zeros 1 1) in
  Mat.set p.Param.grad 0 0 5.0;
  Optim.step (Optim.adam ~lr:0.1 ()) [ p ];
  check_float "grad cleared" 0.0 (Mat.get p.Param.grad 0 0);
  (* Adam's first step moves each weight by lr against the gradient's sign. *)
  check_float "param moved" (-0.1) (Mat.get p.Param.data 0 0)

let suite =
  ( "nn",
    [
      case "activation values" test_activation_values;
      prop_activation_derivatives;
      case "mlp shapes" test_mlp_shapes;
      case "mlp gradient check" test_mlp_gradient_check;
      case "mse" test_mse;
      case "cross entropy uniform" test_cross_entropy_uniform;
      case "cross entropy gradient" test_cross_entropy_gradient;
      case "binary cross entropy gradient" test_binary_cross_entropy_gradient;
      case "adam converges" test_adam_converges;
      case "step zeroes grads" test_step_zeroes_grads;
    ] )
