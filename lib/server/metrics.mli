(** Request counters and latency quantiles of the server: requests served
    (per command and total), errors, bytes in/out, p50/p99 latency over a
    sliding window, uptime. Thread-safe; sampled by the [STATS] command
    and dumped to [--metrics-file] on shutdown. *)

type t

(** Size of the sliding latency window (exposed for boundary tests). *)
val window : int

(** Size of each pipeline stage's sliding window (exposed for boundary
    tests). *)
val stage_window : int

val create : unit -> t

(** Count one finished request. *)
val record : t -> command:string -> ok:bool -> latency_ns:int64 -> unit

(** Feed one finished pipeline-stage duration into the cumulative
    per-stage histograms reported by [STATS] under ["stages"]. *)
val record_stage : t -> stage:string -> dur_ns:int -> unit

(** Count raw socket traffic. *)
val add_io : t -> bytes_in:int -> bytes_out:int -> unit

(** Count one accept refused at the connection cap. Per-process only —
    deliberately not part of {!counters}, so the snapshot format is
    untouched and restarts reset it. *)
val conn_rejected : t -> unit

(** Count one peer dropped for an input-limit violation (over-long line,
    newline-less flood, or reply-backlog overflow). Per-process only. *)
val conn_dropped : t -> unit

(** A copyable view of the cumulative counters, for snapshots. *)
type counters = {
  c_requests : int;
  c_errors : int;
  c_bytes_in : int;
  c_bytes_out : int;
  c_by_command : (string * int) list;
}

val export_counters : t -> counters

(** Fold a restored snapshot's counters into this instance (totals and
    per-command counts add; latency windows are not carried over). *)
val absorb : t -> counters -> unit

val requests : t -> int

val errors : t -> int

(** Latency percentile in milliseconds over the recent-request window
    ([p] in [0..100]; [nan] before the first request). *)
val percentile_ms : t -> float -> float

(** Snapshot as JSON fields (uptime, totals, this process's
    [Gc.quick_stat] heap gauges, quantiles, per-command counts, per-stage
    histograms); [extra] fields are appended — the server passes cache
    and registry gauges. The metrics lock is held only to copy the
    counters and the filled part of each window; percentiles are then
    selected from the copies in linear time. *)
val to_json : t -> extra:(string * Protocol.json) list -> Protocol.json

(** Write the JSON snapshot (plus [extra]) to a file, one object. *)
val write_file : t -> extra:(string * Protocol.json) list -> string -> unit
