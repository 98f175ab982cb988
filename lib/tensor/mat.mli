(** Dense row-major float matrices. BLAS-free; sized for the small corpora
    used throughout the reproduction.  Large products are row-blocked over
    the {!Glql_util.Pool} domain pool; each output row is produced by one
    domain with the sequential inner loops, so results are bit-identical
    for every pool size. *)

type t

val create : int -> int -> float -> t
val zeros : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** The matrix's row-major backing store (row [i] starts at [i * cols]);
    the array itself, not a copy. Flat kernels read and write it
    directly to skip per-element bounds/closure overhead — only touch it
    for a matrix the caller owns. *)
val data : t -> float array

(** Build from a non-empty list of equal-length rows. *)
val of_rows : float array list -> t

(** Fresh copy of row [i]. *)
val row : t -> int -> Vec.t

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

(** Pointwise [into = f a b]; [into] may alias [a] or [b], letting
    backward passes reuse a gradient buffer as scratch. *)
val map2_into : into:t -> (float -> float -> float) -> t -> t -> unit
val add : t -> t -> t
val scale : float -> t -> t
val transpose : t -> t

(** [vec_mul x m] is the row-vector product [x · m] (the paper's [F W]
    convention). *)
val vec_mul : Vec.t -> t -> Vec.t

val mul : t -> t -> t

(** [add_mul_at_b ~into a b] accumulates [aᵀ · b] into [into] without
    materialising the transpose or the product — the dW update of the
    backward passes. *)
val add_mul_at_b : into:t -> t -> t -> unit

(** [mul_abt a b] is [a · bᵀ] without materialising the transpose — the
    dX computation of the backward passes. *)
val mul_abt : t -> t -> t
val add_inplace : into:t -> t -> unit

(** [axpy_inplace ~into alpha a] adds [alpha * a] into [into]. *)
val axpy_inplace : into:t -> float -> t -> unit

val fill : t -> float -> unit

(** I.i.d. centred Gaussian entries. *)
val gaussian : Glql_util.Rng.t -> int -> int -> stddev:float -> t

(** Glorot/Xavier initialisation. *)
val glorot : Glql_util.Rng.t -> int -> int -> t

val equal_approx : ?tol:float -> t -> t -> bool
