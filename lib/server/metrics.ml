(* Server metrics. Latencies go into a fixed ring of the most recent
   requests — quantiles are over that window, which keeps memory bounded
   on long-lived daemons while still answering "what is p99 right now". *)

module Clock = Glql_util.Clock

let window = 65536

(* Per-stage rings are much smaller than the request ring: there are a
   dozen-odd stages and their quantiles only need to be indicative. *)
let stage_window = 4096

type stage_stat = {
  mutable s_count : int;
  mutable s_total_ns : float;
  s_ring : int array;  (* ns; valid up to [min s_count stage_window] *)
  mutable s_next : int;
}

type t = {
  started_ns : int64;
  mutable requests : int;
  mutable errors : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  (* Governance counters live outside [counters] on purpose: [counters]
     is encoded into snapshots, so extending it would change the
     persisted format. Rejections/drops describe this process's life,
     not the service's, and are not carried across restarts. *)
  mutable conns_rejected : int;  (* accepts refused at the connection cap *)
  mutable conns_dropped : int;  (* peers dropped for input-limit violations *)
  by_command : (string, int) Hashtbl.t;
  by_stage : (string, stage_stat) Hashtbl.t;
  ring : int array;  (* latencies in ns; valid up to [min requests window] *)
  mutable ring_next : int;
  mutex : Mutex.t;
}

let create () =
  {
    started_ns = Clock.now_ns ();
    requests = 0;
    errors = 0;
    bytes_in = 0;
    bytes_out = 0;
    conns_rejected = 0;
    conns_dropped = 0;
    by_command = Hashtbl.create 16;
    by_stage = Hashtbl.create 16;
    ring = Array.make window 0;
    ring_next = 0;
    mutex = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t ~command ~ok ~latency_ns =
  with_lock t (fun () ->
      t.requests <- t.requests + 1;
      if not ok then t.errors <- t.errors + 1;
      Hashtbl.replace t.by_command command
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_command command));
      t.ring.(t.ring_next) <- Int64.to_int latency_ns;
      t.ring_next <- (t.ring_next + 1) mod window)

(* Cumulative per-stage histogram feed: the server hands every finished
   trace span here, so STATS can report where query time goes even when
   no client ever asked for a TRACE reply. *)
let record_stage t ~stage ~dur_ns =
  with_lock t (fun () ->
      let st =
        match Hashtbl.find_opt t.by_stage stage with
        | Some st -> st
        | None ->
            let st =
              { s_count = 0; s_total_ns = 0.0; s_ring = Array.make stage_window 0; s_next = 0 }
            in
            Hashtbl.add t.by_stage stage st;
            st
      in
      st.s_count <- st.s_count + 1;
      st.s_total_ns <- st.s_total_ns +. float_of_int dur_ns;
      st.s_ring.(st.s_next) <- dur_ns;
      st.s_next <- (st.s_next + 1) mod stage_window)

let add_io t ~bytes_in ~bytes_out =
  with_lock t (fun () ->
      t.bytes_in <- t.bytes_in + bytes_in;
      t.bytes_out <- t.bytes_out + bytes_out)

let conn_rejected t = with_lock t (fun () -> t.conns_rejected <- t.conns_rejected + 1)

let conn_dropped t = with_lock t (fun () -> t.conns_dropped <- t.conns_dropped + 1)

type counters = {
  c_requests : int;
  c_errors : int;
  c_bytes_in : int;
  c_bytes_out : int;
  c_by_command : (string * int) list;
}

let export_counters t =
  with_lock t (fun () ->
      {
        c_requests = t.requests;
        c_errors = t.errors;
        c_bytes_in = t.bytes_in;
        c_bytes_out = t.bytes_out;
        c_by_command =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_command [] |> List.sort compare;
      })

(* Restore-side: fold a previous life's counters into this one. Latency
   rings are deliberately not carried over — quantiles describe the
   current process, counters the service. *)
let absorb t c =
  with_lock t (fun () ->
      t.requests <- t.requests + c.c_requests;
      t.errors <- t.errors + c.c_errors;
      t.bytes_in <- t.bytes_in + c.c_bytes_in;
      t.bytes_out <- t.bytes_out + c.c_bytes_out;
      List.iter
        (fun (cmd, n) ->
          Hashtbl.replace t.by_command cmd
            (n + Option.value ~default:0 (Hashtbl.find_opt t.by_command cmd)))
        c.c_by_command)

let requests t = with_lock t (fun () -> t.requests)

let errors t = with_lock t (fun () -> t.errors)

(* Nearest-rank percentile, rank ⌈p/100·n⌉, of a private copy of a
   window: [Int_sort.select] permutes [sample] in place, in linear time,
   so p50 and p99 can be drawn from the same copy one after the other. *)
let percentile_of sample p =
  let filled = Array.length sample in
  if filled = 0 then Float.nan
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int filled)) in
    float_of_int (Glql_util.Int_sort.select sample (max 0 (min (filled - 1) (rank - 1))))
  end

(* The filled part of the request ring. Callers hold the lock; only this
   copy is taken under it — selection runs after the lock is released, so
   STATS never holds [record] up for more than one array copy. *)
let request_sample_locked t = Array.sub t.ring 0 (min t.requests window)

let percentile_ms t p = percentile_of (with_lock t (fun () -> request_sample_locked t)) p /. 1e6

let to_json t ~extra =
  let open Protocol in
  let counters, sample, by_command, stages =
    with_lock t (fun () ->
        ( [
            ("uptime_s", Float (Clock.ns_to_s (Clock.elapsed_ns t.started_ns)));
            ("requests", Int t.requests);
            ("errors", Int t.errors);
            ("bytes_in", Int t.bytes_in);
            ("bytes_out", Int t.bytes_out);
            ("conns_rejected", Int t.conns_rejected);
            ("conns_dropped", Int t.conns_dropped);
          ],
          request_sample_locked t,
          Hashtbl.fold (fun k v acc -> (k, Int v) :: acc) t.by_command [],
          Hashtbl.fold
            (fun name st acc ->
              (name, st.s_count, st.s_total_ns, Array.sub st.s_ring 0 (min st.s_count stage_window))
              :: acc)
            t.by_stage [] ))
  in
  (* Per-process heap gauges, outside the persisted [counters] like the
     governance counters: they describe this process's life. *)
  let gc = Gc.quick_stat () in
  let stage (name, count, total_ns, sample) =
    ( name,
      Obj
        [
          ("count", Int count);
          ("total_ms", Float (total_ns /. 1e6));
          ("p50_ms", Float (percentile_of sample 50.0 /. 1e6));
          ("p99_ms", Float (percentile_of sample 99.0 /. 1e6));
        ] )
  in
  Obj
    (counters
    @ [
        ("gc_heap_words", Int gc.Gc.heap_words);
        ("gc_top_heap_words", Int gc.Gc.top_heap_words);
        ("gc_minor_collections", Int gc.Gc.minor_collections);
        ("gc_major_collections", Int gc.Gc.major_collections);
        ("latency_p50_ms", Float (percentile_of sample 50.0 /. 1e6));
        ("latency_p99_ms", Float (percentile_of sample 99.0 /. 1e6));
        ("by_command", Obj (List.sort compare by_command));
        ( "stages",
          Obj (List.map stage (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) stages)) );
      ]
    @ extra)

let write_file t ~extra path =
  let oc = open_out path in
  output_string oc (Protocol.json_to_string (to_json t ~extra));
  output_char oc '\n';
  close_out oc
