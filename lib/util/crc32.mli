(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]), the checksum guarding
    every section of the binary snapshot container. Table-driven,
    allocation-free per byte, and incremental: feed chunks through
    {!update} and read the checksum with {!finish}. Results match
    zlib's [crc32] (["123456789"] checks to [0xCBF43926]). *)

(** Running state of an incremental checksum. *)
type t

(** Fresh checksum state (all-ones register). *)
val init : t

(** [update t s ~pos ~len] extends the checksum over a substring; raises
    [Invalid_argument] when the range is out of bounds. *)
val update : t -> string -> pos:int -> len:int -> t

(** Finalise to the 32-bit checksum value (in [0 .. 0xFFFFFFFF]). *)
val finish : t -> int
