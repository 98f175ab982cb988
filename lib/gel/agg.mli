(** The aggregation collection Theta (slides 45-46, 61): functions from
    bags of vectors to vectors. Empty bags yield the zero vector (or 0 for
    [count]). *)

module Vec = Glql_tensor.Vec

(** Which aggregate [apply] computes: a built-in one, or [Custom]. The
    evaluator folds the built-in ones as it enumerates and recognises them
    by this tag, not by [name]. [t] is private so that only the
    constructors below set it. *)
type kind = Sum | Mean | Max | Min | Count | Custom

type t = private {
  name : string;
  kind : kind;
  in_dim : int;
  out_dim : int;
  apply : Vec.t list -> Vec.t;
}

(** Apply with dimension checks. *)
val apply : t -> Vec.t list -> Vec.t

val sum : int -> t
val mean : int -> t
val max : int -> t
val min : int -> t

(** Bag cardinality (output dim 1). *)
val count : int -> t

(** An aggregate of kind [Custom]: the evaluator hands it the whole bag. *)
val custom : name:string -> in_dim:int -> out_dim:int -> (Vec.t list -> Vec.t) -> t
