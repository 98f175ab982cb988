(** The one JSON tree and printer of the whole system. The server wire
    protocol, the metrics dumps, the bench [--json] rows and the trace
    output all render through this module, so the escaping and float
    rules cannot drift between emitters.

    Rendering is single-line and deterministic. Non-finite floats (nan,
    ±infinity) print as [null] — JSON has no token for them, and [inf]
    would corrupt the stream for any standards-compliant reader. [Float],
    [Floats] and [Float_rows] share one float rule. {!parse} never
    builds the two flat nodes: their bytes parse back as [List]s. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Floats of float array
      (** Renders as [List] of [Float]s would, without boxing a node per
          element. *)
  | Float_rows of { rows : int; width : int; data : float array }
      (** [rows] lists of [width] floats, read row-major from [data]:
          renders as a [List] of [Floats] would. Tabular results (query
          values, profiles) stay flat until they are written. *)

val to_string : t -> string

(** Parse one JSON document (the whole string; trailing garbage is an
    error). Objects keep their fields in document order, so
    [to_string] of a parsed value preserves the original field layout —
    the property the sharded router relies on when it re-renders merged
    per-shard replies. Numbers without a fraction or exponent parse as
    [Int]. *)
val parse : string -> (t, string) result

(** [member k j] is field [k] of object [j], if present. *)
val member : string -> t -> t option

(** [int_member k j] is field [k] of [j] when it is an integer. *)
val int_member : string -> t -> int option
