(** Normal forms of MPNN(Omega, sum) expressions (slide 55, after
    Geerts-Steegmans-Van den Bussche): rewrite any guarded expression into
    the layered shape

    [phi(t)(x1) = F(t)(phi(t-1)(x1), agg_sum_x2(phi(t-1)(x2) | E(x1,x2)))].

    Aggregators other than sum, and values that mix both variables under
    an opaque function, raise {!Unsupported} — matching the theorem's
    scope. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Graph = Glql_graph.Graph

exception Unsupported of string

(** Separation step alone: rewrite so every aggregation's value mentions
    only the bound variable (linearity of sum). *)
val separate : Expr.t -> Expr.t

type t

(** Normalise a single-free-variable MPNN expression. *)
val of_vertex_expr : Expr.t -> t

(** The resulting expression, literally in normal-form shape. *)
val to_expr : t -> Expr.t

(** Number of layers of the normal form (2 per aggregation round). *)
val n_layers : t -> int

(** Width of the layered feature vector. *)
val feature_dim : t -> int

(** Layered evaluation: an [n × d] matrix whose row [v] is the value at
    vertex [v] ([d] the expression's dimension). Runs the plan's
    per-round schedule over one row-major feature array, updated in
    place: each round writes its messages, then sums them over the CSR
    neighbour rows. Row [v] is bit-identical to row [v] of
    [Expr.eval_vertexwise g (to_expr nf)]. [deadline] is checked once per
    round and every 4,096 vertices, and raises
    [Glql_util.Clock.Deadline_exceeded] once it has passed. A [lab]
    beyond the graph's label dimension raises the same {!Expr.Type_error}
    as [Expr.eval]. Safe to call from several domains on one plan. *)
val eval : ?deadline:int64 option -> t -> Graph.t -> Mat.t

(** Max |original - normalised| over all vertices of [g]. *)
val max_deviation : t -> Expr.t -> Graph.t -> float

(** Canonical cache key of an arbitrary GEL expression, used by the query
    server's compiled-plan cache. The key is invariant under renaming of
    bound variables (and order-preserving renaming of free variables),
    reordering of binder lists, and the argument order of the symmetric
    atoms [E] and [1\[.=.\]] / [1\[.!=.\]]; structurally different queries
    render to different keys. Weight-carrying functions are fingerprinted
    by their parameters (linear maps) or by physical identity (MLPs,
    opaque customs) — the latter never collide but only share across
    physically shared nodes. Never raises. *)
val cache_key : Expr.t -> string
