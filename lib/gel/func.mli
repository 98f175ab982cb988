(** The function collection Omega of MPNN(Omega, Theta) and
    GEL(Omega, Theta) (slides 44, 60): dimension-signed float functions
    used in expression nodes [Apply (f, args)]. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Mlp = Glql_nn.Mlp
module Activation = Glql_nn.Activation

(** Symbolic tag of a function, letting the normal-form rewriter (slide 55)
    push sum-aggregation through combinators. [K_opaque] blocks it. *)
type kind =
  | K_concat
  | K_linear of Mat.t * Vec.t
  | K_linear_multi of Mat.t list * Vec.t
  | K_activation of Activation.t
  | K_product
  | K_add
  | K_scale of float
  | K_scale_by
  | K_mlp of Mlp.t
  | K_opaque

(** Private, so that only the constructors below set [kind]. *)
type t = private {
  name : string;
  in_dims : int list;
  out_dim : int;
  kind : kind;
  apply : Vec.t list -> Vec.t;
}

(** Apply with dimension checking on inputs and output. *)
val apply : t -> Vec.t list -> Vec.t

(** Concatenation of inputs with the given dimensions. *)
val concat : int list -> t

(** [x |-> x W + b] (row-vector convention). *)
val linear : ?name:string -> Mat.t -> Vec.t -> t

(** [(x1..xk) |-> x1 W1 + ... + xk Wk + b]. *)
val linear_multi : ?name:string -> Mat.t list -> Vec.t -> t

(** Pointwise activation on a d-dimensional input. *)
val activation : Activation.t -> int -> t

(** Pointwise product (slide 60's multiplication for d = 1). *)
val product : int -> t

val add : int -> t
val scale : float -> int -> t

(** A fixed MLP as an Omega member (slide 53's mlp-closure). *)
val mlp : ?name:string -> Mlp.t -> t

(** Lift a scalar function. *)
val scalar : string -> (float -> float) -> t

(** A function of kind [K_opaque] with an explicit signature. *)
val custom : name:string -> in_dims:int list -> out_dim:int -> (Vec.t list -> Vec.t) -> t

(** [(v, s) |-> s * v] — scalar rescaling of a d-dimensional vector. *)
val scale_by : int -> t

(** [(v, s) |-> v / s] with [0/0 = 0]. *)
val divide_by : int -> t
