(* A learnable parameter: a matrix (vectors are 1 x d) with its gradient
   accumulator and the Adam moment buffers. *)

module Mat = Glql_tensor.Mat

type t = {
  name : string;
  data : Mat.t;
  grad : Mat.t;
  moment1 : Mat.t;
  moment2 : Mat.t;
}

let create ~name data =
  let r = Mat.rows data and c = Mat.cols data in
  { name; data; grad = Mat.zeros r c; moment1 = Mat.zeros r c; moment2 = Mat.zeros r c }

let zero_grad p = Mat.fill p.grad 0.0

(* A shadow of [p]: shares the (read-only during forward/backward) data
   matrix but owns a private zeroed gradient buffer, so concurrent
   backward passes on different domains never race.  The moment buffers
   are shared too — only the optimiser touches them, and it only ever
   runs on the original parameters. *)
let shadow p = { p with grad = Mat.zeros (Mat.rows p.grad) (Mat.cols p.grad) }
