(** Combinators for writing GEL(Omega, Theta) expressions, plus the
    tutorial's standard examples (degree, triangle counting in GEL^3,
    common neighbours). *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat

(** The paper's variable names. *)
val x1 : Expr.var

val x2 : Expr.var
val x3 : Expr.var

val lab : int -> Expr.var -> Expr.t

(** All [dim] label components concatenated — nu_G(x). *)
val labels : dim:int -> Expr.var -> Expr.t

val edge : Expr.var -> Expr.var -> Expr.t
val eq : Expr.var -> Expr.var -> Expr.t
val const1 : float -> Expr.t

(** Dimension of the root node alone, in O(1): the constructors below
    read only this, so they do not validate their arguments' subtrees.
    {!Expr.dim} and {!Expr.eval} reject a malformed expression when it is
    used. *)
val root_dim : Expr.t -> int

(** Concatenate expressions (dims inferred). *)
val concat : Expr.t list -> Expr.t

val relu : Expr.t -> Expr.t
val sigmoid : Expr.t -> Expr.t
val trunc_relu : Expr.t -> Expr.t
val linear : Mat.t -> Vec.t -> Expr.t -> Expr.t

(** Pointwise product / sum / scaling. *)
val mul : Expr.t -> Expr.t -> Expr.t

val add : Expr.t -> Expr.t -> Expr.t
val scale : float -> Expr.t -> Expr.t

(** Aggregate [value] over [y] in the neighbourhood of [x] (slide 45). *)
val agg_neighbors : Agg.t -> x:Expr.var -> y:Expr.var -> Expr.t -> Expr.t

(** Global aggregation over all vertices (slide 46). *)
val agg_global : Agg.t -> x:Expr.var -> Expr.t -> Expr.t

(** Unguarded aggregation over several variables (slide 61). *)
val agg_all : Agg.t -> ys:Expr.var list -> Expr.t -> Expr.t

val sum_neighbors : x:Expr.var -> y:Expr.var -> Expr.t -> Expr.t
val mean_neighbors : x:Expr.var -> y:Expr.var -> Expr.t -> Expr.t
val max_neighbors : x:Expr.var -> y:Expr.var -> Expr.t -> Expr.t
val readout_sum : x:Expr.var -> Expr.t -> Expr.t

(** [deg(x)]. *)
val degree : x:Expr.var -> y:Expr.var -> Expr.t

(** Walks of length 2 from [x]. *)
val two_walks : x:Expr.var -> y:Expr.var -> Expr.t

(** Triangles through [x1]: slide 60's three-variable example. *)
val triangles_at_x1 : unit -> Expr.t

(** Closed GEL^3 expression computing the graph's triangle count. *)
val triangle_count : unit -> Expr.t

(** Common-neighbour count of [x1] and [x2] (2-vertex embedding). *)
val common_neighbors : unit -> Expr.t
