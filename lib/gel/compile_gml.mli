(** Graded modal logic to MPNN(Omega, Theta) compiler (slide 54, after
    Barcelo et al.): linear combinations + sum aggregation + truncated
    ReLU compute GML exactly on Boolean labels. *)

module Gml = Glql_logic.Gml
module Graph = Glql_graph.Graph

(** The compiled dimension-1 MPNN expression with free variable x1. *)
val compile : Gml.t -> Expr.t

(** Per-vertex truth table of the compiled expression ([>= 0.5] = true). *)
val eval_compiled : Gml.t -> Graph.t -> bool array
