(** Deterministic SplitMix64 pseudo-random generator.

    Every source of randomness in glql goes through this module, keyed by an
    explicit integer seed, so experiments replay exactly. *)

type t

(** [create seed] is a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** Independent copy sharing the current state. *)
val copy : t -> t

(** Raw 64-bit output; advances the state. *)
val next_int64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [int t bound] is uniform in [0, bound). Raises on [bound <= 0]. *)
val int : t -> int -> int

(** Standard normal deviate (Box-Muller). *)
val gaussian : t -> float

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
