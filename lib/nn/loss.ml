(* Loss functions L : Y^2 -> R (slide 18) with their gradients in the
   prediction argument. Each returns (mean loss over rows, dL/dpred). *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec

(* Least squares (slide 18's example). *)
let mse ~pred ~target =
  if Mat.rows pred <> Mat.rows target || Mat.cols pred <> Mat.cols target then
    invalid_arg "Loss.mse: shape mismatch";
  let n = float_of_int (Mat.rows pred * Mat.cols pred) in
  let loss = ref 0.0 in
  let grad = Mat.zeros (Mat.rows pred) (Mat.cols pred) in
  for i = 0 to Mat.rows pred - 1 do
    for j = 0 to Mat.cols pred - 1 do
      let d = Mat.get pred i j -. Mat.get target i j in
      loss := !loss +. (d *. d);
      Mat.set grad i j (2.0 *. d /. n)
    done
  done;
  (!loss /. n, grad)

(* Cross entropy over logits with integer class labels. *)
let softmax_cross_entropy ~logits ~labels =
  let rows = Mat.rows logits in
  if Array.length labels <> rows then invalid_arg "Loss.softmax_cross_entropy: label count";
  let grad = Mat.zeros rows (Mat.cols logits) in
  let loss = ref 0.0 in
  let inv_n = 1.0 /. float_of_int (max 1 rows) in
  for i = 0 to rows - 1 do
    let p = Vec.softmax (Mat.row logits i) in
    let y = labels.(i) in
    if y < 0 || y >= Array.length p then invalid_arg "Loss.softmax_cross_entropy: bad label";
    loss := !loss -. log (Float.max 1e-12 p.(y));
    for j = 0 to Array.length p - 1 do
      let indicator = if j = y then 1.0 else 0.0 in
      Mat.set grad i j ((p.(j) -. indicator) *. inv_n)
    done
  done;
  (!loss *. inv_n, grad)

(* Binary cross entropy on a single logit column, targets in {0,1}. *)
let binary_cross_entropy ~logits ~targets =
  let rows = Mat.rows logits in
  if Mat.cols logits <> 1 then invalid_arg "Loss.binary_cross_entropy: need 1 column";
  if Array.length targets <> rows then invalid_arg "Loss.binary_cross_entropy: target count";
  let grad = Mat.zeros rows 1 in
  let loss = ref 0.0 in
  let inv_n = 1.0 /. float_of_int (max 1 rows) in
  for i = 0 to rows - 1 do
    let z = Mat.get logits i 0 in
    let p = 1.0 /. (1.0 +. exp (-.z)) in
    let y = targets.(i) in
    loss := !loss -. ((y *. log (Float.max 1e-12 p)) +. ((1.0 -. y) *. log (Float.max 1e-12 (1.0 -. p))));
    Mat.set grad i 0 ((p -. y) *. inv_n)
  done;
  (!loss *. inv_n, grad)

