(** The sectioned binary container underneath snapshots.

    Layout (all integers little-endian):

    {v
    "GLQS"                magic, 4 bytes
    u32 format_version    currently 1
    u32 section_count
    per section:
      str  tag            u32 length + bytes, e.g. "GRPH"
      u32  payload length
      u32  CRC-32 of tag bytes ++ payload (IEEE, zlib-compatible)
      payload bytes
    v}

    Decoding rejects bad magic, unknown (future) versions, truncation
    anywhere, and per-section checksum mismatches — always with a clean
    [Error], never an exception or a partially decoded value. Unknown
    section tags are preserved by {!of_string} so a newer minor writer
    stays readable; incompatible changes must bump the format version. *)

(** Serialise sections in order. *)
val to_string : (string * string) list -> string

(** Parse a container; inverse of {!to_string}. *)
val of_string : string -> ((string * string) list, string) result

(** [write_file path sections] writes atomically (temp file + rename in
    the target directory) and returns the byte size written. *)
val write_file : string -> (string * string) list -> (int, string) result
