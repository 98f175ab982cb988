(* The function collection Omega of the embedding languages MPNN(Omega,
   Theta) and GEL(Omega, Theta) (slides 44 and 60).

   A function object carries its arity/dimension signature so expressions
   can be dimension-checked statically, plus the float implementation used
   by the evaluator.  The constructors below cover everything the paper
   needs: concatenation, linear combinations, non-linear activations,
   pointwise products (slide 60's f_x), MLPs (slide 53's "mlp-closed"
   richness condition) and a few scalar utilities. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Mlp = Glql_nn.Mlp
module Activation = Glql_nn.Activation

(* Symbolic tag used by the normal-form rewriter (slide 55): aggregation
   can be pushed through these combinators symbolically. [K_opaque]
   functions evaluate fine but block the rewriter. *)
type kind =
  | K_concat
  | K_linear of Mat.t * Vec.t
  | K_linear_multi of Mat.t list * Vec.t
  | K_activation of Activation.t
  | K_product
  | K_add
  | K_scale of float
  | K_scale_by          (* (vector, scalar) |-> scalar * vector *)
  | K_mlp of Mlp.t
  | K_opaque

type t = {
  name : string;
  in_dims : int list;
  out_dim : int;
  kind : kind;
  apply : Vec.t list -> Vec.t;
}

let check_dims t args =
  let got = List.map Vec.dim args in
  if got <> t.in_dims then
    invalid_arg
      (Printf.sprintf "Func.%s: expected dims [%s], got [%s]" t.name
         (String.concat ";" (List.map string_of_int t.in_dims))
         (String.concat ";" (List.map string_of_int got)))

let apply t args =
  check_dims t args;
  let out = t.apply args in
  if Vec.dim out <> t.out_dim then
    failwith (Printf.sprintf "Func.%s: produced dim %d, declared %d" t.name (Vec.dim out) t.out_dim);
  out

(* Concatenation of any number of inputs. *)
let concat in_dims =
  {
    name = "concat";
    in_dims;
    kind = K_concat;
    out_dim = List.fold_left ( + ) 0 in_dims;
    apply = (fun args -> Vec.concat args);
  }

(* x |-> x W + b  (row-vector convention of slide 13). *)
let linear ?name w b =
  let din = Mat.rows w and dout = Mat.cols w in
  if Vec.dim b <> dout then invalid_arg "Func.linear: bias dim mismatch";
  {
    name = Option.value name ~default:"linear";
    in_dims = [ din ];
    kind = K_linear (w, b);
    out_dim = dout;
    apply =
      (function
      | [ x ] -> Vec.add (Mat.vec_mul x w) b
      | _ -> assert false);
  }

(* (x1, ..., xk) |-> x1 W1 + ... + xk Wk + b : the multi-input affine maps
   GNN layer updates are made of. *)
let linear_multi ?name ws b =
  let dout = Vec.dim b in
  List.iter (fun w -> if Mat.cols w <> dout then invalid_arg "Func.linear_multi: out dims differ") ws;
  {
    name = Option.value name ~default:"linear-multi";
    in_dims = List.map Mat.rows ws;
    kind = K_linear_multi (ws, b);
    out_dim = dout;
    apply =
      (fun args ->
        let out = Vec.copy b in
        List.iter2 (fun x w -> Vec.add_inplace ~into:out (Mat.vec_mul x w)) args ws;
        out);
  }

(* Pointwise activation of a d-dimensional input. *)
let activation act d =
  {
    name = Activation.name act;
    in_dims = [ d ];
    kind = K_activation act;
    out_dim = d;
    apply = (function [ x ] -> Activation.apply_vec act x | _ -> assert false);
  }

(* Pointwise (Hadamard) product of two d-dimensional inputs; for d = 1
   this is slide 60's multiplication f_x. *)
let product d =
  {
    name = "product";
    in_dims = [ d; d ];
    kind = K_product;
    out_dim = d;
    apply = (function [ a; b ] -> Vec.mul a b | _ -> assert false);
  }

(* Sum of two d-dimensional inputs. *)
let add d =
  {
    name = "add";
    in_dims = [ d; d ];
    kind = K_add;
    out_dim = d;
    apply = (function [ a; b ] -> Vec.add a b | _ -> assert false);
  }

(* Scale by a constant. *)
let scale c d =
  {
    name = Printf.sprintf "scale(%g)" c;
    in_dims = [ d ];
    kind = K_scale c;
    out_dim = d;
    apply = (function [ a ] -> Vec.scale c a | _ -> assert false);
  }

(* A fixed multilayer perceptron as an Omega member (slide 53). *)
let mlp ?name m =
  {
    name = Option.value name ~default:"mlp";
    in_dims = [ Mlp.in_dim m ];
    kind = K_mlp m;
    out_dim = Mlp.out_dim m;
    apply = (function [ x ] -> Mlp.apply_vec m x | _ -> assert false);
  }

(* Arbitrary scalar function lifted to Omega. *)
let scalar name f =
  {
    name;
    in_dims = [ 1 ];
    kind = K_opaque;
    out_dim = 1;
    apply = (function [ x ] -> [| f x.(0) |] | _ -> assert false);
  }

(* Custom function with explicit signature. Always [K_opaque]: a
   combinator tag must describe its [apply], since the normal-form
   rewriter and the evaluator act on the tag. *)
let custom ~name ~in_dims ~out_dim f = { name; in_dims; out_dim; kind = K_opaque; apply = f }

(* (vector, scalar) |-> scalar * vector; used when pushing a sum through a
   value that does not depend on the aggregated variable (slide 55). *)
let scale_by d =
  {
    name = "scale-by";
    in_dims = [ d; 1 ];
    kind = K_scale_by;
    out_dim = d;
    apply = (function [ v; s ] -> Vec.scale s.(0) v | _ -> assert false);
  }

(* (vector, scalar) |-> vector / scalar, with 0/0 = 0 (safe division used
   by mean-from-sum and attention normalisation). *)
let divide_by d =
  {
    name = "divide-by";
    in_dims = [ d; 1 ];
    kind = K_opaque;
    out_dim = d;
    apply =
      (function
      | [ v; s ] -> if s.(0) = 0.0 then Vec.zeros d else Vec.scale (1.0 /. s.(0)) v
      | _ -> assert false);
  }
