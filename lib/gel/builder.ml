(* Convenience combinators for writing GEL(Omega, Theta) expressions, plus
   the standard example expressions of the tutorial (degree, triangle
   counting in GEL^3, walk counts...). *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Activation = Glql_nn.Activation

let x1 = 1
let x2 = 2
let x3 = 3

let lab j x = Expr.Lab (j, x)

(* All label components of a vertex as one vector (the usual nu_G(v)). *)
let labels ~dim x =
  Expr.Apply (Func.concat (List.init dim (fun _ -> 1)), List.init dim (fun j -> lab j x))

let edge x y = Expr.Edge (x, y)

let eq x y = Expr.Cmp (Expr.Ceq, x, y)

let const1 c = Expr.Const [| c |]

(* The dimension of [e]'s root node alone, in O(1). The smart
   constructors below read only this, so building a depth-L expression
   costs O(L); a malformed argument is still rejected by [Expr.dim] or
   [Expr.eval] when the result is used. *)
let root_dim = function
  | Expr.Lab _ | Expr.Edge _ | Expr.Cmp _ -> 1
  | Expr.Const v -> Vec.dim v
  | Expr.Apply (f, _) -> f.Func.out_dim
  | Expr.Agg (th, _, _, _) -> th.Agg.out_dim

let concat exprs = Expr.Apply (Func.concat (List.map root_dim exprs), exprs)

let relu e = Expr.Apply (Func.activation Activation.Relu (root_dim e), [ e ])

let sigmoid e = Expr.Apply (Func.activation Activation.Sigmoid (root_dim e), [ e ])

let trunc_relu e = Expr.Apply (Func.activation Activation.Trunc_relu (root_dim e), [ e ])

let linear w b e = Expr.Apply (Func.linear w b, [ e ])

let mul a b =
  let d = root_dim a in
  if root_dim b <> d then invalid_arg "Builder.mul: dim mismatch";
  Expr.Apply (Func.product d, [ a; b ])

let add a b =
  let d = root_dim a in
  if root_dim b <> d then invalid_arg "Builder.add: dim mismatch";
  Expr.Apply (Func.add d, [ a; b ])

let scale c e = Expr.Apply (Func.scale c (root_dim e), [ e ])

(* Neighbourhood aggregation guarded by the edge relation (slide 45):
   aggregate [value] over [y] ranging over the neighbours of [x]. *)
let agg_neighbors th ~x ~y value = Expr.Agg (th, [ y ], value, edge x y)

(* Global aggregation over all vertices (slide 46). *)
let agg_global th ~x value = Expr.Agg (th, [ x ], value, const1 1.0)

(* Unguarded aggregation over several variables (full GEL, slide 61). *)
let agg_all th ~ys value = Expr.Agg (th, ys, value, const1 1.0)

let sum_neighbors ~x ~y value = agg_neighbors (Agg.sum (root_dim value)) ~x ~y value

let mean_neighbors ~x ~y value = agg_neighbors (Agg.mean (root_dim value)) ~x ~y value

let max_neighbors ~x ~y value = agg_neighbors (Agg.max (root_dim value)) ~x ~y value

let readout_sum ~x value = agg_global (Agg.sum (root_dim value)) ~x value

(* --- standard expressions ---------------------------------------------- *)

(* deg(x) = agg_sum_y(1 | E(x, y)). *)
let degree ~x ~y = sum_neighbors ~x ~y (const1 1.0)

(* Number of walks of length 2 leaving x. *)
let two_walks ~x ~y = sum_neighbors ~x ~y (degree ~x:y ~y:x)

(* Triangles through x1 — needs three variables, slide 60's example:
   sum over x2, x3 of E(x1,x2) * E(x2,x3) * E(x3,x1). Each vertex pair of
   a triangle at x1 is counted once per orientation, so divide by 2. *)
let triangles_at_x1 () =
  let product3 =
    mul (edge x1 x2) (mul (edge x2 x3) (edge x3 x1))
  in
  scale 0.5 (agg_all (Agg.sum 1) ~ys:[ x2; x3 ] product3)

(* Total triangle count of the graph, a closed GEL^3 expression. Every
   triangle is counted once per ordered vertex triple (6 ways). *)
let triangle_count () =
  let product3 = mul (edge x1 x2) (mul (edge x2 x3) (edge x3 x1)) in
  scale (1.0 /. 6.0) (agg_all (Agg.sum 1) ~ys:[ x1; x2; x3 ] product3)

(* Number of common neighbours of x1 and x2 (a 2-vertex embedding used by
   link prediction). *)
let common_neighbors () =
  agg_all (Agg.sum 1) ~ys:[ x3 ] (mul (edge x1 x3) (edge x2 x3))
