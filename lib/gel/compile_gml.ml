(* Compiling graded modal logic into MPNN(Omega, Theta) expressions
   (slide 54, after Barcelo et al., ICLR 2020).

   Every GML formula maps to a dimension-1 MPNN expression over {0,1}
   using only linear combinations, summation aggregation and the truncated
   ReLU sigma(x) = min(max(x, 0), 1):

     [p_j]          = sigma(lab_j(x))
     [not phi]      = sigma(1 - [phi])
     [phi and psi]  = sigma([phi] + [psi] - 1)
     [phi or psi]   = sigma([phi] + [psi])
     [<>_k phi]     = sigma(sum_{y ~ x} [phi](y) - (k - 1))

   On Boolean inputs these are exact, so the compiled expression computes
   the same unary query as the logic evaluator — experiment E6 checks
   this on random formulas and graphs. *)

module Mat = Glql_tensor.Mat
module Gml = Glql_logic.Gml
module Graph = Glql_graph.Graph
module B = Builder

let affine coeffs bias args =
  (* coeffs.(i) * arg_i + bias, all dimension 1 *)
  let ws = List.map (fun c -> Mat.init 1 1 (fun _ _ -> c)) coeffs in
  Expr.Apply (Func.linear_multi ~name:"affine" ws [| bias |], args)

(* Compile with both variable orientations so Diamond can alternate the
   two variables and stay in the guarded fragment, exactly like GNN layer
   compilation. *)
let rec compile phi = Glql_util.Trace.with_span "compile.gml" (fun () -> compile_untraced phi)

and compile_untraced phi =
  let rec go phi ~x ~y =
    match phi with
    | Gml.Top -> B.const1 1.0
    | Gml.Prop j -> B.trunc_relu (B.lab j x)
    | Gml.Not psi -> B.trunc_relu (affine [ -1.0 ] 1.0 [ go psi ~x ~y ])
    | Gml.And (a, b) -> B.trunc_relu (affine [ 1.0; 1.0 ] (-1.0) [ go a ~x ~y; go b ~x ~y ])
    | Gml.Or (a, b) -> B.trunc_relu (affine [ 1.0; 1.0 ] 0.0 [ go a ~x ~y; go b ~x ~y ])
    | Gml.Diamond (k, psi) ->
        let inner = go psi ~x:y ~y:x in
        let summed = B.sum_neighbors ~x ~y inner in
        B.trunc_relu (affine [ 1.0 ] (-.float_of_int (k - 1)) [ summed ])
  in
  go phi ~x:B.x1 ~y:B.x2

(* Truth table of the compiled expression: value >= 0.5 counts as true. *)
let eval_compiled phi g =
  let e = compile phi in
  Array.map (fun v -> v.(0) >= 0.5) (Expr.eval_vertexwise g e)
