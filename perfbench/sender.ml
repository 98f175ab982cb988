(* Open-loop sender: one process, at most two connections.

   Each measured phase starts at a fresh origin; request [r] becomes due
   at origin + r.due_us whatever the daemon is doing, and its latency is
   timed from that due time. A "capacity.<k>" phase instead keeps a fixed
   window of requests in flight (see [capacity_window]). The one exception to sending on schedule is
   the write hazard: the daemon runs the lines of one select-loop batch in
   parallel, so a read pipelined behind an unacknowledged LOAD / MUTATE /
   TRAIN of the same graph can run before it (and a write pipelined
   behind an unacknowledged read can run before the read). A request
   sharing a key with such an in-flight request on its connection is held
   until the reply arrives; the hold counts in its latency.

   Output, one line per request: idx, due_us, send_us, recv_us, reply
   bytes, status, digest — all times relative to the phase origin — then
   one "#phase" summary line per phase with the generator's own lag
   (how late the loop noticed a due request, holds excluded) and, for
   a nominal phase, the daemon's median resident set. *)

module S = Stream

(* A phase whose last reply comes later than this after its last due
   time built a backlog. *)
let drain_limit_s = 0.25

(* Requests kept in flight, over both connections, in a capacity
   phase. It ignores due times and sends the next request as soon as
   the window has room, so the daemon always has work queued while its
   batches stay bounded. *)
let capacity_window = 128

(* PINGs sent after set-up: past the daemon's 65,536-entry latency
   window, so the cost of STATS is steady. *)
let prefill = 66_000

(* Round trips timed each way by [forward]. *)
let forward_round_trips = 2000

let now_us () = Int64.to_float (Glql_util.Clock.now_ns ()) /. 1e3

type conn = {
  fd : Unix.file_descr;
  mutable out : Bytes.t;  (* unsent request bytes live in [out_off, out_len) *)
  mutable out_off : int;
  mutable out_len : int;
  pending : Buffer.t;  (* bytes of a reply line not yet complete *)
  inflight : S.req Queue.t;  (* sent, awaiting reply, in send order *)
  mutable ready : S.req list;  (* due but not yet sent, in due order *)
  busy : (string, int) Hashtbl.t;  (* key -> unacked requests *)
  busy_w : (string, int) Hashtbl.t;  (* key -> unacked writes *)
}

let rec connect path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if tries <= 0 then raise e
      else begin
        Unix.sleepf 0.02;
        connect path (tries - 1)
      end

let make_conn path =
  let fd = connect path 500 in
  Unix.set_nonblock fd;
  {
    fd;
    out = Bytes.create 65536;
    out_off = 0;
    out_len = 0;
    pending = Buffer.create 65536;
    inflight = Queue.create ();
    ready = [];
    busy = Hashtbl.create 16;
    busy_w = Hashtbl.create 16;
  }

let bump tbl k d =
  let v = d + Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  if v <= 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k v

let is_write (r : S.req) = r.S.cls = 'W'

let blocked c (r : S.req) =
  List.exists
    (fun k -> if is_write r then Hashtbl.mem c.busy k else Hashtbl.mem c.busy_w k)
    r.S.keys

let unsent c = c.out_len - c.out_off

let enqueue c line =
  let need = String.length line + 1 in
  if c.out_len + need > Bytes.length c.out then begin
    (* Compact, growing only when the unsent bytes themselves need it. *)
    let pending = unsent c in
    let size = max (Bytes.length c.out) (2 * (pending + need)) in
    let fresh = if size > Bytes.length c.out then Bytes.create size else c.out in
    Bytes.blit c.out c.out_off fresh 0 pending;
    c.out <- fresh;
    c.out_off <- 0;
    c.out_len <- pending
  end;
  Bytes.blit_string line 0 c.out c.out_len (String.length line);
  Bytes.set c.out (c.out_len + need - 1) '\n';
  c.out_len <- c.out_len + need

let flush_conn c =
  if unsent c > 0 then
    match Unix.write c.fd c.out c.out_off (unsent c) with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = c.out_len then begin
          c.out_off <- 0;
          c.out_len <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Send every ready request that is not held; a held request also holds
   every later request sharing one of its keys, so per-key order is the
   stream order. *)
let pump c ~on_send =
  let held_keys = Hashtbl.create 4 in
  let keep = ref [] in
  List.iter
    (fun (r : S.req) ->
      if blocked c r || List.exists (Hashtbl.mem held_keys) r.S.keys then begin
        List.iter (fun k -> Hashtbl.replace held_keys k ()) r.S.keys;
        keep := r :: !keep
      end
      else begin
        enqueue c r.S.line;
        Queue.push r c.inflight;
        List.iter
          (fun k ->
            bump c.busy k 1;
            if is_write r then bump c.busy_w k 1)
          r.S.keys;
        on_send r
      end)
    c.ready;
  c.ready <- List.rev !keep;
  flush_conn c

let chunk = Bytes.create (1 lsl 20)

(* Read what is available; call [on_reply req line] per complete line. *)
let drain_input c ~on_reply =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.pending chunk !start (i - !start);
          let line = Buffer.contents c.pending in
          Buffer.clear c.pending;
          start := i + 1;
          let r = Queue.pop c.inflight in
          List.iter
            (fun k ->
              bump c.busy k (-1);
              if is_write r then bump c.busy_w k (-1))
            r.S.keys;
          on_reply r line
        end
      done;
      Buffer.add_subbytes c.pending chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

type record = {
  mutable send_us : float;
  mutable recv_us : float;
  mutable bytes : int;
  mutable status : string;
  mutable digest : string;
}

(* Run one phase: open-loop on its due times or, with [~window], keeping
   [window] requests released but unanswered. Returns (records, lags,
   drained_in_time). *)
let run_phase ?window conns (reqs : S.req list) ~keep ~sample =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let recs =
    Array.init n (fun _ -> { send_us = nan; recv_us = nan; bytes = 0; status = ""; digest = "" })
  in
  let slot = Hashtbl.create n in
  Array.iteri (fun i (r : S.req) -> Hashtbl.replace slot r.S.idx i) reqs;
  let lags = Array.make n 0.0 in
  let origin = now_us () +. 2000.0 in
  let next = ref 0 in
  let received = ref 0 in
  let on_send (r : S.req) = recs.(Hashtbl.find slot r.S.idx).send_us <- now_us () -. origin in
  let on_reply (r : S.req) line =
    let rc = recs.(Hashtbl.find slot r.S.idx) in
    rc.recv_us <- now_us () -. origin;
    rc.bytes <- String.length line + 1;
    rc.status <- S.status line;
    let cmd = S.command r.S.line in
    rc.digest <- (if r.S.check = 'S' then "-" else S.digest ~cmd line);
    keep r line;
    incr received
  in
  let last_due = if n = 0 then 0.0 else float_of_int reqs.(n - 1).S.due_us in
  let hard_stop = ref infinity in
  let next_sample = ref 0.0 in
  while !received < n do
    let now = now_us () -. origin in
    if now >= !next_sample then begin
      sample ();
      next_sample := now +. 100_000.0
    end;
    let released () =
      match window with
      | Some w -> !next - !received < w
      | None -> float_of_int reqs.(!next).S.due_us <= now
    in
    while !next < n && released () do
      let r = reqs.(!next) in
      if window = None then lags.(!next) <- now -. float_of_int r.S.due_us;
      let c = conns.(r.S.conn) in
      c.ready <- c.ready @ [ r ];
      incr next
    done;
    Array.iter (fun c -> if c.ready <> [] then pump c ~on_send) conns;
    if !next >= n && !hard_stop = infinity then hard_stop := now_us () +. (drain_limit_s *. 1e6);
    if now_us () > !hard_stop +. 60e6 then failwith "phase never drained";
    let timeout =
      if !next < n && window = None then
        max 0.0 ((float_of_int reqs.(!next).S.due_us -. (now_us () -. origin)) /. 1e6)
      else 0.05
    in
    let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let wr =
      Array.to_list conns
      |> List.filter (fun c -> unsent c > 0)
      |> List.map (fun c -> c.fd)
    in
    match Unix.select rd wr [] (min timeout 0.05) with
    | readable, writable, _ ->
        Array.iter
          (fun c ->
            if List.mem c.fd writable then flush_conn c;
            if List.mem c.fd readable then drain_input c ~on_reply)
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let finished = Array.fold_left (fun m rc -> max m rc.recv_us) 0.0 recs in
  (reqs, recs, lags, finished -. last_due <= drain_limit_s *. 1e6)

(* A /proc status field of [pids] in MB, summed; 0 for a vanished pid. *)
let status_mb ?(field = "VmRSS:") pids =
  List.fold_left
    (fun acc pid ->
      match open_in (Printf.sprintf "/proc/%d/status" pid) with
      | ic ->
          let kb = ref 0 in
          (try
             while true do
               let l = input_line ic in
               let n = String.length field in
               if String.length l > n && String.sub l 0 n = field then
                 kb := Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun x -> x)
             done
           with End_of_file -> close_in ic);
          acc +. (float_of_int !kb /. 1024.0)
      | exception Sys_error _ -> acc)
    0.0 pids

let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p /. 100.0 *. float_of_int n)))

let run ~socket ~stream ~out ~keep_file ~pids =
  let reqs = S.load stream in
  let conns = [| make_conn socket; make_conn socket |] in
  let oc = open_out out in
  let kc = open_out keep_file in
  let keep (r : S.req) line =
    if r.S.check = 'S' || r.S.check = 'F' then Printf.fprintf kc "%d\t%s\n" r.S.idx line
  in
  List.iter
    (fun phase ->
      (* Daemon memory is sampled every 100 ms of the nominal phase. *)
      let rss = ref [] in
      let sample () = if S.kind phase = "nominal" && pids <> [] then rss := status_mb pids :: !rss in
      let window = if S.kind phase = "capacity" then Some capacity_window else None in
      let reqs, recs, lags, drained = run_phase ?window conns (S.in_phase reqs phase) ~keep ~sample in
      Array.iteri
        (fun i (r : S.req) ->
          let rc = recs.(i) in
          Printf.fprintf oc "%d\t%d\t%.1f\t%.1f\t%d\t%s\t%s\n" r.S.idx r.S.due_us rc.send_us
            rc.recv_us rc.bytes rc.status rc.digest)
        reqs;
      Printf.fprintf oc "#phase\t%s\t%d\t%.1f\t%.1f\t%b\t%.3f\t%.3f\n" phase (Array.length reqs)
        (percentile lags 99.0)
        (Array.fold_left max 0.0 lags)
        drained
        (percentile (Array.of_list !rss) 50.0)
        (status_mb ~field:"VmHWM:" pids);
      flush_all ();
      (* Let the daemon go idle before the next phase. *)
      Unix.sleepf 0.2)
    (List.filter (fun p -> p <> "setup" && p <> "final") (S.phases reqs));
  close_out oc;
  close_out kc;
  Array.iter (fun c -> Unix.close c.fd) conns

(* Closed-loop: send [lines] one at a time on one connection and return
   the replies. *)
let closed_loop fd lines =
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  List.map
    (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic)
    lines

(* Boot-time work on a fresh daemon: the setup lines (LOAD, TRAIN) one at
   a time, then [prefill] PINGs pipelined in windows, so the daemon's
   latency window is full before anything is measured. *)
let setup ~sockets ~stream =
  let reqs = S.load stream in
  let setup_lines = List.map (fun (r : S.req) -> r.S.line) (S.in_phase reqs "setup") in
  List.iteri
    (fun i socket ->
      let fd = connect socket 500 in
      if i = 0 then
        List.iter2
          (fun line reply ->
            if S.status reply <> "OK" then
              failwith (Printf.sprintf "setup line failed: %s -> %s" line reply))
          setup_lines (closed_loop fd setup_lines);
      let window = 4096 in
      let ping_block = String.concat "" (List.init window (fun _ -> "PING\n")) in
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let sent = ref 0 in
      while !sent < prefill do
        output_string oc ping_block;
        flush oc;
        for _ = 1 to window do
          let reply = input_line ic in
          if reply <> "OK \"pong\"" then failwith ("prefill PING failed: " ^ reply)
        done;
        sent := !sent + window
      done;
      Unix.close fd)
    sockets

(* Closed-loop lines on one connection; writes idx TAB digest per line. *)
let final ~socket ~stream ~phase ~out =
  let reqs = S.in_phase (S.load stream) phase in
  let fd = connect socket 500 in
  let replies = closed_loop fd (List.map (fun (r : S.req) -> r.S.line) reqs) in
  let oc = open_out out in
  List.iter2
    (fun (r : S.req) reply ->
      Printf.fprintf oc "%d\t%s\n" r.S.idx (S.digest ~cmd:(S.command r.S.line) reply))
    reqs replies;
  close_out oc;
  Unix.close fd

(* Router forwarding cost on an idle system: the same warm request, sent
   closed-loop alternately through the router front and straight to the
   worker that owns its graph; the difference of the median round trips,
   in microseconds. *)
let forward ~socket =
  let n = forward_round_trips in
  let fd = connect socket 500 in
  let ask fd line = List.hd (closed_loop fd [ line ]) in
  ignore (ask fd "LOAD fwd petersen");
  let route = ask fd "ROUTE fwd" in
  let shard =
    match Glql_util.Json.parse (String.sub route 3 (String.length route - 3)) with
    | Ok j -> Option.get (Glql_util.Json.int_member "shard" j)
    | Error e -> failwith e
  in
  let direct = connect (Printf.sprintf "%s.shard%d" socket shard) 500 in
  let line = "WL fwd" in
  ignore (ask fd line);
  ignore (ask direct line);
  let rtt fd =
    let t0 = now_us () in
    ignore (ask fd line);
    now_us () -. t0
  in
  let routed = Array.make n 0.0 and straight = Array.make n 0.0 in
  for i = 0 to n - 1 do
    routed.(i) <- rtt fd;
    straight.(i) <- rtt direct
  done;
  Unix.close fd;
  Unix.close direct;
  percentile routed 50.0 -. percentile straight 50.0
