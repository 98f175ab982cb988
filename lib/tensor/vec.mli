(** Dense float vectors ([float array]) with the operations used by the
    embedding languages and the neural-network substrate. All results are
    freshly allocated unless the function name ends in [_inplace]. *)

type t = float array

val create : int -> float -> t
val zeros : int -> t
val init : int -> (int -> float) -> t
val dim : t -> int
val copy : t -> t

(** Pointwise combine; raises on dimension mismatch. *)
val map2 : (float -> float -> float) -> t -> t -> t

val add : t -> t -> t

(** Pointwise (Hadamard) product. *)
val mul : t -> t -> t

val scale : float -> t -> t

(** [add_inplace ~into a] accumulates [a] into [into]. *)
val add_inplace : into:t -> t -> unit

(** [axpy_inplace ~into alpha a] adds [alpha * a] into [into]. *)
val axpy_inplace : into:t -> float -> t -> unit

val dot : t -> t -> float

(** L-infinity distance. *)
val linf_dist : t -> t -> float

val concat : t list -> t

(** Index of the (first) maximum entry. *)
val argmax : t -> int

(** Numerically stable softmax. *)
val softmax : t -> t

(** I.i.d. centred Gaussian entries with the given standard deviation. *)
val gaussian : Glql_util.Rng.t -> int -> stddev:float -> t

(** Equality up to [tol] in L-infinity (default [1e-9]). *)
val equal_approx : ?tol:float -> t -> t -> bool

val to_string : ?digits:int -> t -> string
