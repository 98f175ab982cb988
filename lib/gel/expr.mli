(** The graph embedding language GEL(Omega, Theta) (slides 57-62) and its
    guarded fragment MPNN(Omega, Theta) (slides 42-47).

    An expression with [p] free variables and dimension [d] denotes an
    invariant p-vertex embedding [xi : G -> (V^p -> R^d)]. Evaluation is
    database-style, a calculus with aggregates (slide 47): each
    aggregation is a join over its variables, driven by the edge atoms of
    its guard through the graph's sorted CSR rows (see {!eval}).
    Expressions may share subterms (DAGs); every analysis and the
    evaluator memoise on physical identity within one call, so shared
    structure built with [let] bindings is visited once per call.
    Nothing is memoised across calls: each call to {!dim} or
    {!free_vars} walks the whole DAG, and no expression is retained once
    the call returns. A pass that needs more holds a
    {!free_vars_memoized}, {!dim_memoized} or {!agg_depth_memoized}
    function for its duration. *)

module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph

type var = int

type cmp = Ceq | Cneq

type t =
  | Lab of int * var        (** [lab_j(x_i)], dimension 1 (slide 43). *)
  | Edge of var * var       (** [E(x_i, x_j)] as a 0/1 value (slide 59). *)
  | Cmp of cmp * var * var  (** [1\[x_i op x_j\]] (slide 59). *)
  | Const of Vec.t          (** Constant vector, no free variables. *)
  | Apply of Func.t * t list  (** [F(phi_1, ..., phi_l)] (slides 44, 60). *)
  | Agg of Agg.t * var list * t * t
      (** [Agg (theta, ys, value, guard)]: aggregate [value] over
          assignments of [ys] where [guard] is nonzero (slides 45-46, 61). *)

exception Type_error of string

(** Sorted free variables; [p = length (free_vars e)]. *)
val free_vars : t -> var list

(** All variables, free and bound. *)
val all_vars : t -> var list

(** Number of distinct variables — the k of GEL^k (slide 62). *)
val width : t -> int

(** Label components read: the largest [lab] index plus one (0 if none). *)
val labels_read : t -> int

(** Output dimension; raises {!Type_error} on ill-formed expressions. *)
val dim : t -> int

(** [free_vars] and [dim] for a pass that asks about many nodes of one
    DAG: the returned function keeps its memo table for as long as the
    caller holds it, so each node is walked once over all its calls.
    Drop it when the pass ends, and do not share it between domains. *)
val free_vars_memoized : unit -> t -> var list

val dim_memoized : unit -> t -> int

(** Maximum aggregation nesting depth (message-passing rounds). *)
val agg_depth : t -> int

(** [agg_depth] with a held memo table, as for {!dim_memoized}. *)
val agg_depth_memoized : unit -> t -> int

(** Number of distinct DAG nodes. *)
val n_nodes : t -> int

(** Membership in the guarded MPNN fragment (slide 62: GGEL2 = MPNN). *)
val is_mpnn : t -> bool

type fragment = Frag_mpnn | Frag_gel of int

(** Smallest fragment of this implementation containing the expression. *)
val fragment : t -> fragment

val fragment_name : fragment -> string

val to_string : t -> string

(** The value of an expression over V^p, row-major in sorted free-variable
    order. Only the root's table is built in this form; the evaluator
    keeps its intermediate tables flat. *)
type table = {
  tvars : var list;
  tn : int;
  tdim : int;
  tdata : Vec.t array;
}

(** Value at an assignment (array indexed by variable). *)
val table_get : table -> int array -> Vec.t

(** Evaluate on a graph, materialising the table over its free variables.

    An aggregation whose guard (or, for [sum], whose value) is built only
    from [Edge]/[Cmp] atoms and 1-dimensional [product]s of them is not
    materialised: its atoms drive the enumeration, and an edge atom to an
    already bound variable restricts a variable to that vertex's sorted
    neighbour row. The built-in aggregates fold as they enumerate,
    {!Agg.custom} ones receive the whole bag. Results are bit-identical
    to materialising every subexpression over all assignments.

    [deadline] ({!Glql_util.Clock} monotonic deadline) is checked once
    every 4,096 enumeration steps and raises
    {!Glql_util.Clock.Deadline_exceeded} once it has passed. *)
val eval : ?deadline:int64 option -> Graph.t -> t -> table

(** [eval] without boxing the rows: row [r] of the matrix is entry [r] of
    [(eval g e).tdata], so it has [n^p] rows of [dim e] columns. *)
val eval_matrix : ?deadline:int64 option -> Graph.t -> t -> Glql_tensor.Mat.t

(** Value of a closed expression — a graph embedding (slide 46). *)
val eval_closed : ?deadline:int64 option -> Graph.t -> t -> Vec.t

(** Per-vertex values of a single-free-variable expression. *)
val eval_vertexwise : ?deadline:int64 option -> Graph.t -> t -> Vec.t array
