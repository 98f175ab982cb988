(* The one connection loop shared by the daemon and the router (see the
   interface for the pass structure). Everything here is single-domain:
   only the main domain touches sockets. *)

module P = Protocol
module Clock = Glql_util.Clock
module Trace = Glql_util.Trace

module Outbuf = struct
  (* Unsent bytes are [buf.[off] .. buf.[len - 1]]. A flush only advances
     [off]; an append that does not fit moves the unsent bytes to the
     front only when the written prefix is at least as long as they are
     (so each moved byte was paid for by a written one), and doubles the
     buffer otherwise. *)
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create () = { buf = Bytes.create 1024; off = 0; len = 0 }

  let pending b = b.len - b.off

  let clear b =
    b.off <- 0;
    b.len <- 0

  let add b s =
    let n = String.length s in
    if b.len + n > Bytes.length b.buf then begin
      let live = pending b in
      let dst =
        if b.off >= live && live + n <= Bytes.length b.buf then b.buf
        else Bytes.create (max (live + n) (2 * Bytes.length b.buf))
      in
      Bytes.blit b.buf b.off dst 0 live;
      b.buf <- dst;
      b.off <- 0;
      b.len <- live
    end;
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n

  let flush b fd =
    let rec go written =
      if pending b = 0 then begin
        clear b;
        written
      end
      else
        match Unix.single_write fd b.buf b.off (pending b) with
        | 0 -> written
        | n ->
            b.off <- b.off + n;
            go (written + n)
        | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
            written
        | exception (Unix.Unix_error _ as e) -> if written > 0 then written else raise e
    in
    go 0
end

type 'a conn = {
  fd : Unix.file_descr;
  lines : Line_buf.t;
  out : Outbuf.t;
  mutable closing : bool;  (* QUIT or EOF: no more reads; close once settled *)
  mutable dropped : bool;  (* output discarded; close after one last flush *)
  mutable over_cap_since : float option;  (* when the backlog last passed the cap *)
  data : 'a;
}

let data c = c.data

let add_line out line =
  Outbuf.add out line;
  Outbuf.add out "\n"

let send c line = if not c.dropped then add_line c.out line

let quit c = c.closing <- true

let drop c =
  c.dropped <- true;
  c.closing <- true

type link = {
  l_fd : Unix.file_descr;
  l_lines : Line_buf.t;
  l_out : Outbuf.t;
  mutable l_open : bool;
  l_on_line : string -> unit;
  l_on_down : string -> unit;
}

(* Worker replies are single lines but can be large (query tables up to
   the cell cap); the upstream framing caps are deliberately generous. *)
let upstream_line_cap = 256 * 1024 * 1024

let link fd ~on_line ~on_down =
  {
    l_fd = fd;
    l_lines = Line_buf.create ~max_line_bytes:upstream_line_cap ~max_buf_bytes:upstream_line_cap ();
    l_out = Outbuf.create ();
    l_open = true;
    l_on_line = on_line;
    l_on_down = on_down;
  }

let link_send l line = add_line l.l_out line

let close_link l =
  if l.l_open then begin
    l.l_open <- false;
    try Unix.close l.l_fd with Unix.Unix_error _ -> ()
  end

type 'a hooks = {
  init : unit -> 'a;
  on_lines : ('a conn * string) array -> unit;
  owes : 'a conn -> bool;
  links : unit -> link list;
  on_pass : accepting:bool -> unit;
  busy : unit -> bool;
  drain_s : float;
  abandon : unit -> unit;
}

let max_conns_ceiling = 1024 - 128

(* A reader whose backlog stays past the cap for [stall_s] is not coming
   back; drop it to cap the memory it can pin. The grace period spares a
   reader that is draining a large batch queued in one pass. *)
let max_conn_outbuf = 8 * 1024 * 1024

let stall_s = 1.0

(* Window the drain gives queued replies before closing. *)
let flush_window_s = 2.0

let with_signals stop f =
  let handle signal behavior = (signal, Sys.signal signal behavior) in
  let prev =
    List.map
      (fun signal -> handle signal (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigint; Sys.sigterm ]
    @ try [ handle Sys.sigpipe Sys.Signal_ignore ] with Invalid_argument _ -> []
  in
  Fun.protect f ~finally:(fun () ->
      List.iter (fun (signal, h) -> try Sys.set_signal signal h with Invalid_argument _ -> ()) prev)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let open_listeners ~log ~socket_path ~tcp_port =
  let listen domain addr what =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    log ("listening on " ^ what);
    fd
  in
  let unix path =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    listen Unix.PF_UNIX (Unix.ADDR_UNIX path) ("unix socket " ^ path)
  in
  let tcp port =
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    listen Unix.PF_INET addr ("tcp port " ^ string_of_int port)
  in
  List.filter_map Fun.id [ Option.map unix socket_path; Option.map tcp tcp_port ]

let limit_error = function
  | Line_buf.Line_too_long limit ->
      P.error ~code:"ERR_LIMIT_LINE" (Printf.sprintf "request line exceeds the %d-byte limit" limit)
  | Line_buf.Buffer_overflow limit ->
      P.error ~code:"ERR_LIMIT_INBUF"
        (Printf.sprintf "connection buffered more than %d bytes without a newline" limit)

let run ~role ~log ~metrics ~stop ~socket_path ~tcp_port ~max_connections ~max_line_bytes
    ~max_inbuf_bytes hooks =
  let logf fmt = Printf.ksprintf log fmt in
  let listeners = open_listeners ~log ~socket_path ~tcp_port in
  if listeners = [] then invalid_arg "Conn_loop.run: no socket_path and no tcp_port";
  let conns : (Unix.file_descr, 'a conn) Hashtbl.t = Hashtbl.create 16 in
  let chunk = Bytes.create 65536 in
  let accept lfd =
    match Unix.accept ~cloexec:true lfd with
    | exception Unix.Unix_error _ -> ()
    | fd, _ when Hashtbl.length conns >= max_connections ->
        (* Refuse above the cap: one structured error, then close. The
           fresh fd is still blocking, but a ~60-byte write into an empty
           send buffer cannot block. *)
        Metrics.conn_rejected metrics;
        logf "rejecting connection (%d live, cap %d)" (Hashtbl.length conns) max_connections;
        let line =
          P.err_line
            (P.error ~code:"ERR_LIMIT_CONNS"
               (Printf.sprintf "%s is at its %d-connection limit" role max_connections))
          ^ "\n"
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        close_quiet fd
    | fd, _ ->
        Unix.set_nonblock fd;
        Hashtbl.replace conns fd
          {
            fd;
            lines = Line_buf.create ~max_line_bytes ~max_buf_bytes:max_inbuf_bytes ();
            out = Outbuf.create ();
            closing = false;
            dropped = false;
            over_cap_since = None;
            data = hooks.init ();
          };
        logf "client connected (%d live)" (Hashtbl.length conns)
  in
  (* Read what one descriptor has: [`Bytes n] with the bytes in [chunk],
     [`Eof], [`Failed], or [`Nothing] (spurious wakeup). *)
  let read fd =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
        Metrics.add_io metrics ~bytes_in:n ~bytes_out:0;
        `Bytes n
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> `Nothing
    | exception Unix.Unix_error _ -> `Failed
  in
  let read_conn batch c =
    match read c.fd with
    | `Nothing -> ()
    | `Eof -> c.closing <- true
    | `Failed -> drop c
    | `Bytes n -> (
        match Line_buf.feed c.lines chunk ~off:0 ~len:n with
        | Ok lines ->
            List.iter
              (fun line -> if String.trim line <> "" then batch := (c, line) :: !batch)
              lines
        | Error e ->
            (* Governance drop: one structured error line, best-effort
               (whatever the pass's flush pushes out), then close. *)
            let err = limit_error e in
            Metrics.conn_dropped metrics;
            logf "dropping client: %s (%s)" err.P.message err.P.code;
            send c (P.err_line err);
            drop c)
  in
  let read_link l =
    match read l.l_fd with
    | `Nothing -> ()
    | `Eof -> l.l_on_down "EOF"
    | `Failed -> l.l_on_down "read failed"
    | `Bytes n -> (
        match Line_buf.feed l.l_lines chunk ~off:0 ~len:n with
        | Ok lines -> List.iter (fun line -> if l.l_open then l.l_on_line line) lines
        | Error _ -> l.l_on_down "reply overflowed the framing caps")
  in
  let flush out fd =
    let n = Outbuf.flush out fd in
    if n > 0 then Metrics.add_io metrics ~bytes_in:0 ~bytes_out:n
  in
  let flush_link l =
    if l.l_open && Outbuf.pending l.l_out > 0 then
      try flush l.l_out l.l_fd with Unix.Unix_error _ -> l.l_on_down "write failed"
  in
  let flush_conn c =
    let pending = Outbuf.pending c.out in
    if pending > 0 then begin
      (* Visible in the Chrome trace only (no request sink is installed
         on the loop), closing the request lifecycle: read -> dispatch ->
         reply flush. *)
      (Trace.with_span ~args:[ ("bytes", string_of_int pending) ] "reply.flush" @@ fun () ->
       (* Peer is gone (EPIPE etc.): drop the unsent tail and reap. *)
       try flush c.out c.fd with Unix.Unix_error _ -> drop c);
      if c.dropped then Outbuf.clear c.out
      else if Outbuf.pending c.out <= max_conn_outbuf then c.over_cap_since <- None
      else
        let now = Unix.gettimeofday () in
        match c.over_cap_since with
        | None -> c.over_cap_since <- Some now
        | Some since when now -. since >= stall_s ->
            logf "dropping client with %d unsent reply bytes (not reading)" (Outbuf.pending c.out);
            Metrics.conn_dropped metrics;
            Outbuf.clear c.out;
            drop c
        | Some _ -> ()
    end
  in
  let pass ~accepting =
    let links = List.filter (fun l -> l.l_open) (hooks.links ()) in
    let watched_read =
      (if accepting then
         listeners
         @ Hashtbl.fold (fun fd c acc -> if c.closing then acc else fd :: acc) conns []
       else [])
      @ List.map (fun l -> l.l_fd) links
    in
    let watched_write =
      Hashtbl.fold (fun fd c acc -> if Outbuf.pending c.out > 0 then fd :: acc else acc) conns []
      @ List.filter_map (fun l -> if Outbuf.pending l.l_out > 0 then Some l.l_fd else None) links
    in
    let readable, writable =
      match Unix.select watched_read watched_write [] 0.25 with
      | readable, writable, _ -> (readable, writable)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    (* Links first: a failed upstream write fails its requests, and those
       error replies should leave in the same flush. *)
    let flush_where keep =
      List.iter (fun l -> if keep l.l_fd then flush_link l) links;
      Hashtbl.iter (fun fd c -> if keep fd then flush_conn c) conns
    in
    (* Bytes queued in earlier passes go out before this pass's batch
       runs: a long batch must not hold up what the socket can take now. *)
    flush_where (fun fd -> List.mem fd writable);
    let batch = ref [] in
    List.iter
      (fun fd ->
        if List.mem fd listeners then (if accepting then accept fd)
        else
          match Hashtbl.find_opt conns fd with
          | Some c -> read_conn batch c
          | None -> (
              match List.find_opt (fun l -> l.l_fd = fd && l.l_open) links with
              | Some l -> read_link l
              | None -> ()))
      readable;
    if !batch <> [] then hooks.on_lines (Array.of_list (List.rev !batch));
    flush_where (fun _ -> true);
    hooks.on_pass ~accepting;
    Hashtbl.filter_map_inplace
      (fun fd c ->
        if (c.dropped || (c.closing && not (hooks.owes c))) && Outbuf.pending c.out = 0 then begin
          close_quiet fd;
          None
        end
        else Some c)
      conns
  in
  while not (Atomic.get stop) do
    pass ~accepting:true
  done;
  (* Drain: stop accepting and reading clients, give in-flight work a
     bounded window, then give queued replies theirs. *)
  let drain_deadline = Clock.deadline_after hooks.drain_s in
  while hooks.busy () && not (Clock.expired drain_deadline) do
    pass ~accepting:false
  done;
  hooks.abandon ();
  let flush_deadline = Clock.deadline_after flush_window_s in
  let unflushed () = Hashtbl.fold (fun _ c acc -> acc || Outbuf.pending c.out > 0) conns false in
  while unflushed () && not (Clock.expired flush_deadline) do
    pass ~accepting:false
  done;
  Hashtbl.iter (fun fd _ -> close_quiet fd) conns;
  List.iter close_quiet listeners;
  Option.iter (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ()) socket_path
