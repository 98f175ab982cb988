(** The one connection loop of [lib/server], shared by the glqld daemon
    ({!Server}) and its sharded router front ({!Router}).

    It owns everything socket-shaped: the listeners, the
    SIGINT/SIGTERM/SIGPIPE handlers, accepting (refusing past the
    connection cap with [ERR_LIMIT_CONNS]), input framing through
    {!Line_buf} ([ERR_LIMIT_LINE] / [ERR_LIMIT_INBUF]), the nonblocking
    out buffers with their drop cap, and the bounded shutdown drain. The
    owner says what request lines mean and what idle work runs; the
    router also hangs its upstream worker connections ({!link}s) on the
    same select.

    One pass: select; accept and read every readable descriptor; hand
    the pass's request lines to [on_lines]; flush every descriptor with
    pending output once; run [on_pass]; close finished connections.
    Queueing output never writes, so a reply leaves in the pass that
    produced it, before any idle work runs. *)

(** Pending output of one nonblocking socket. A flush advances a write
    offset, so it costs only the bytes the socket took; the unsent
    backlog is never copied. *)
module Outbuf : sig
  type t

  val create : unit -> t

  (** Append bytes; never writes. *)
  val add : t -> string -> unit

  (** Bytes queued but not yet taken by the socket. *)
  val pending : t -> int

  (** Write what the socket takes now and return the byte count (0 when
      it is full). Raises [Unix.Unix_error] if the peer is gone before
      any byte of this call was written. *)
  val flush : t -> Unix.file_descr -> int
end

(** An accepted client connection; ['a] is the owner's state for it. *)
type 'a conn

val data : 'a conn -> 'a

(** Queue one reply line (the newline is added); a no-op once the loop
    dropped the connection. *)
val send : 'a conn -> string -> unit

(** QUIT: read nothing more, and close once nothing is owed and the
    queued replies have left. *)
val quit : 'a conn -> unit

(** A connection the loop did not accept (router to worker), read and
    flushed every pass while open. Its lines go to [on_line]; EOF, a
    read or write failure, or a line past the generous upstream framing
    caps go to [on_down] with the reason. *)
type link

val link : Unix.file_descr -> on_line:(string -> unit) -> on_down:(string -> unit) -> link

(** Queue one request line; never writes. *)
val link_send : link -> string -> unit

(** Close the socket; the loop stops watching it. Idempotent. *)
val close_link : link -> unit

type 'a hooks = {
  init : unit -> 'a;  (** state of a freshly accepted connection *)
  on_lines : ('a conn * string) array -> unit;
      (** the non-blank request lines of one pass, in arrival order *)
  owes : 'a conn -> bool;  (** replies still owed: a closing connection stays open *)
  links : unit -> link list;  (** upstream connections to watch this pass *)
  on_pass : accepting:bool -> unit;  (** idle work; [accepting] is false while draining *)
  busy : unit -> bool;  (** the drain waits while this holds, for at most [drain_s] *)
  drain_s : float;
  abandon : unit -> unit;  (** runs when the drain stops waiting on [busy] *)
}

(** The largest accepted [--max-conns]. select(2) cannot watch a
    descriptor at or above FD_SETSIZE (1024); this leaves 128 below it
    for stdio, the listeners, router upstream links and transient files. *)
val max_conns_ceiling : int

(** [with_signals stop f] runs [f] with SIGINT/SIGTERM setting [stop]
    and SIGPIPE ignored (writes to a vanished peer fail with EPIPE),
    then restores the previous handlers. *)
val with_signals : bool Atomic.t -> (unit -> 'b) -> 'b

(** Open the listeners and run passes until [stop] is set. Then drain:
    stop accepting and reading clients, run passes while [busy], call
    [abandon], give pending replies a bounded window to flush, and close
    every client and listener (unlinking the socket path). [role] names
    the process in the connection-cap refusal. Raises [Invalid_argument]
    with neither a socket path nor a TCP port. *)
val run :
  role:string ->
  log:(string -> unit) ->
  metrics:Metrics.t ->
  stop:bool Atomic.t ->
  socket_path:string option ->
  tcp_port:int option ->
  max_connections:int ->
  max_line_bytes:int ->
  max_inbuf_bytes:int ->
  'a hooks ->
  unit
