(* The Adam gradient-descent optimizer (slide 20: "back propagation and
   gradient descent like methods"). [step] consumes the accumulated
   gradients and zeroes them. *)

module Mat = Glql_tensor.Mat

type t = { lr : float; beta1 : float; beta2 : float; eps : float; mutable steps : int }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr () =
  { lr; beta1; beta2; eps; steps = 0 }

let step a params =
  a.steps <- a.steps + 1;
  let t = float_of_int a.steps in
  let bc1 = 1.0 -. (a.beta1 ** t) in
  let bc2 = 1.0 -. (a.beta2 ** t) in
  List.iter
    (fun (p : Param.t) ->
      let m = p.Param.moment1 and v = p.Param.moment2 in
      for i = 0 to Mat.rows m - 1 do
        for j = 0 to Mat.cols m - 1 do
          let g = Mat.get p.Param.grad i j in
          let mi = (a.beta1 *. Mat.get m i j) +. ((1.0 -. a.beta1) *. g) in
          let vi = (a.beta2 *. Mat.get v i j) +. ((1.0 -. a.beta2) *. g *. g) in
          Mat.set m i j mi;
          Mat.set v i j vi;
          let mhat = mi /. bc1 and vhat = vi /. bc2 in
          Mat.set p.Param.data i j
            (Mat.get p.Param.data i j -. (a.lr *. mhat /. (sqrt vhat +. a.eps)))
        done
      done;
      Param.zero_grad p)
    params
