(** First-order logic with counting quantifiers (the C^k of slides 51/66),
    evaluated by assignment enumeration on small graphs. *)

module Graph = Glql_graph.Graph

type t =
  | True
  | Lab of int * int  (** [Lab (j, x)]: label component [j] of [x] >= 0.5 *)
  | Edge of int * int
  | Eq of int * int
  | Not of t
  | And of t * t
  | Or of t * t
  | ExistsGeq of int * int * t
      (** [ExistsGeq (k, x, phi)]: at least [k] witnesses for [x]. *)

(** Ordinary existential/universal quantifiers, as counting sugar. *)
val exists : int -> t -> t

val free_vars : t -> int list

(** All variables occurring (free or bound). *)
val variables : t -> int list

(** Number of distinct variables — the [k] of C^k. *)
val width : t -> int

(** Truth table of a unary query with free variable [x]. *)
val eval_unary : t -> Graph.t -> x:int -> bool array

(** Value of a sentence. Raises if free variables remain. *)
val eval_sentence : t -> Graph.t -> bool
