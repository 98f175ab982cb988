(** Loss functions L : Y^2 -> R (slide 18) with gradients in the
    prediction argument. Each returns (mean loss, dL/dpred). *)

module Mat = Glql_tensor.Mat

(** Least squares. *)
val mse : pred:Mat.t -> target:Mat.t -> float * Mat.t

(** Softmax + cross entropy over logits, one integer label per row. *)
val softmax_cross_entropy : logits:Mat.t -> labels:int array -> float * Mat.t

(** Binary cross entropy on a single logit column; targets in {0,1}. *)
val binary_cross_entropy : logits:Mat.t -> targets:float array -> float * Mat.t
