(** Collision-free canonical signatures and a string interner.

    WL refinement and separation-power partitions both reduce structured
    values (multisets of colours, rounded embedding vectors) to dense ids
    comparable across graphs; this module provides the canonical encodings
    and the shared interner. *)

(** Order-insensitive (multiset) signature; the input is not mutated. *)
val of_int_multiset : int array -> string

(** Join sub-signatures into a composite signature. *)
val of_string_list : string list -> string

(** Signature of a float vector rounded to [decimals] digits (default 6),
    so embeddings equal up to numerical noise intern identically. *)
val of_float_vector : ?decimals:int -> float array -> string

module Interner : sig
  type t

  val create : unit -> t

  (** [intern t key] is the dense id of [key], allocating the next free id
      on first sight. Ids start at 0 and are stable for the interner's
      lifetime. *)
  val intern : t -> string -> int

end
