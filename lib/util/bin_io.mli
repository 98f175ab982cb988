(** Little-endian binary encoding with bounds-checked decoding, the
    byte-level substrate of the snapshot store.

    The writer is an append-only buffer; the reader is a cursor over an
    immutable string. Every read checks its bounds and every length
    prefix is validated against the bytes actually remaining, so a
    truncated or corrupted input can never trigger an out-of-range
    access or an absurd allocation — it raises {!Corrupt}, which
    {!decode} converts into a clean [Error]. *)

(** Raised by reader operations on malformed input. Callers inside the
    store layer let it propagate to {!decode}; it never escapes a
    [decode] call. *)
exception Corrupt of string

(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)
val corrupt : ('a, unit, string, 'b) format4 -> 'a

module Writer : sig
  type t

  val create : unit -> t

  (** Unsigned byte; raises [Invalid_argument] outside [0 .. 255]. *)
  val u8 : t -> int -> unit

  (** Unsigned 32-bit little-endian; raises [Invalid_argument] outside
      [0 .. 0xFFFFFFFF]. *)
  val u32 : t -> int -> unit

  (** OCaml int as a signed 64-bit little-endian word. *)
  val i64 : t -> int -> unit

  (** IEEE-754 double, bit-exact. *)
  val f64 : t -> float -> unit

  (** Length-prefixed ([u32]) byte string. *)
  val str : t -> string -> unit

  (** Length-prefixed ([u32]) array of [i64]. *)
  val int_array : t -> int array -> unit

  (** Length-prefixed ([u32]) array of [f64], bit-exact. *)
  val float_array : t -> float array -> unit

  (** Append the raw bytes of another writer (no length prefix). *)
  val raw : t -> string -> unit

  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : string -> t

  (** Bytes left between the cursor and the end of input. *)
  val remaining : t -> int

  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int
  val f64 : t -> float

  (** Length-prefixed byte string; the prefix is checked against
      {!remaining} before any allocation. *)
  val str : t -> string

  val int_array : t -> int array
  val float_array : t -> float array

  (** Raw [n] bytes. *)
  val take : t -> int -> string

  (** Raises {!Corrupt} unless the input is fully consumed. *)
  val expect_end : t -> unit
end

(** [decode s f] runs decoder [f] over [s], converting {!Corrupt} (and
    any [Invalid_argument] or [Failure] escaping domain validation)
    into [Error msg]. *)
val decode : string -> (Reader.t -> 'a) -> ('a, string) result
