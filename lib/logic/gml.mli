(** Graded modal logic (slide 54): the logic characterising the unary
    queries expressible by MPNNs (Barcelo et al., ICLR 2020). Proposition
    [p_j] holds where label component [j] is [>= 0.5]. *)

module Graph = Glql_graph.Graph

type t =
  | Prop of int
  | Top
  | Not of t
  | And of t * t
  | Or of t * t
  | Diamond of int * t
      (** [Diamond (k, phi)]: at least [k] neighbours satisfy [phi]. *)

(** Modal (Diamond-nesting) depth. *)
val depth : t -> int

(** Syntactic size. *)
val size : t -> int

val to_string : t -> string

(** Truth value at every vertex. *)
val eval : t -> Graph.t -> bool array

(** Random formula with exactly the given modal depth. *)
val random :
  Glql_util.Rng.t -> n_props:int -> target_depth:int -> max_count:int -> t
