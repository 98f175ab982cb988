(* Fault-injection harness for glqld, driven against real daemon
   processes over raw Unix-domain sockets:

     fault <glqld.exe>

   Phase A throws protocol-level abuse at a governed daemon — random
   bytes, a newline-less slow-loris flood, mid-request disconnects, a
   connection-count pile-up, requests engineered to trip the
   deadline / cell / cost guards, and a client that pipelines large
   replies and never reads them — asserting every fault produces a
   structured ERR (machine-readable "code") or a clean drop, that RSS
   stays bounded across repeated floods, and that the daemon still
   answers afterwards. It also checks the --max-conns ceiling: a larger
   value is refused at startup on both topologies, and a daemon at the
   ceiling serves every slot and refuses the rest.

   Phase B attacks persistence: booting from garbage and truncated
   snapshot files, and SIGKILL racing a SAVE, asserting the
   atomic-rename discipline leaves every snapshot valid-or-absent and
   the next boot healthy.

   Phase C attacks the sharded topology: a client that never reads its
   replies through the router (the router drops it; no worker drops its
   router link), SIGKILL of a shard worker under
   `--respawn` (the victim's graphs must come back snapshot-warm while
   the other shards never stop answering), SIGKILL of the router
   itself (the workers must survive as independently addressable daemons
   on their own shard sockets), and a SIGSTOPped worker (the router must
   kill and reap it before respawning its shard).

   Phase D attacks the v5 mutation path: a pipelined flood of MUTATE
   batches — valid, malformed, and mixed — must produce only structured
   replies with RSS bounded (recoloring seeds count against the
   colouring budget), and MUTATE racing SAVE under SIGKILL must leave
   the snapshot valid-or-absent with the next boot healthy.

   Phase E attacks the v6 model registry: TRAIN racing a MUTATE flood
   must leave MODELS and PREDICT consistent with exactly the
   acknowledged models, and SIGKILL mid-TRAIN must leave the last SAVEd
   snapshot restoring a registry with the persisted model, none of the
   in-flight ones, and no half-written entry.

   Phase F attacks the RETRAIN-on-stale loop: a MUTATE flood racing the
   idle-loop refits must leave every request structurally answered,
   MODELS holding exactly the trained model, and — once the flood stops
   — a PREDICT that settles to stale:false on the final generation.

   Phase G floods a router whose members' latency windows are already
   full with a PING/WL/HOM/triangle-QUERY/STATS mix, asserting replies
   complete in every second, all of them OK, with RSS bounded. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok - %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL - %s\n%!" name
  end

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Daemons spawned so far; killed at exit so a failing harness never
   leaves orphans holding the scratch directory's sockets. *)
let live_daemons : int list ref = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live_daemons

let spawn_daemon glqld args ~stdout_file =
  let out_fd = Unix.openfile stdout_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  (* Pin the pool size so memory behaviour is stable across machines. *)
  let env =
    Array.append (Unix.environment ()) [| "GLQL_DOMAINS=2" |]
  in
  let pid =
    Unix.create_process_env glqld (Array.of_list (glqld :: args)) env Unix.stdin out_fd
      Unix.stderr
  in
  Unix.close out_fd;
  live_daemons := pid :: !live_daemons;
  pid

let wait_exit pid =
  live_daemons := List.filter (fun p -> p <> pid) !live_daemons;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Some code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> None

(* [wait_exit] for a process that should exit on its own within [timeout]
   seconds; one still running then is SIGTERMed, reaped, and reported as
   [None]. *)
let wait_exit_within ~timeout pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        poll ()
    | 0, _ ->
        Unix.kill pid Sys.sigterm;
        ignore (wait_exit pid);
        None
    | _, status -> (
        live_daemons := List.filter (fun p -> p <> pid) !live_daemons;
        match status with Unix.WEXITED code -> Some code | _ -> None)
  in
  poll ()

let wait_for_socket sock =
  let deadline = Unix.gettimeofday () +. 15.0 in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.05)
  done

(* --- raw client plumbing ------------------------------------------------- *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send_raw fd s =
  (* EPIPE / ECONNRESET just mean the server already dropped us — for a
     fault harness that is an acceptable outcome of writing at it. *)
  try ignore (Unix.write_substring fd s 0 (String.length s)) with Unix.Unix_error _ -> ()

let send_line fd s = send_raw fd (s ^ "\n")

(* Read one '\n'-terminated line, waiting up to [timeout] seconds.
   Returns [`Line l] (without the newline), [`Eof], or [`Timeout]. *)
let recv_line ?(timeout = 10.0) fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then `Timeout
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> `Timeout
      | _ -> (
          match Unix.read fd byte 0 1 with
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
          | 0 -> `Eof
          | _ ->
              if Bytes.get byte 0 = '\n' then `Line (Buffer.contents buf)
              else begin
                Buffer.add_char buf (Bytes.get byte 0);
                go ()
              end)
  in
  go ()

let recv_eof ?(timeout = 10.0) fd =
  (* Drain until EOF; any stray bytes before it are fine. *)
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> false
      | _ -> (
          match Unix.read fd chunk 0 4096 with
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
          | 0 -> true
          | _ -> go ())
  in
  go ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One-shot request on a fresh connection. *)
let request sock line =
  let fd = connect sock in
  send_line fd line;
  let reply = recv_line fd in
  close_quiet fd;
  reply

let expect_ok sock name line =
  match request sock line with
  | `Line reply -> check name (String.length reply >= 2 && String.sub reply 0 2 = "OK")
  | `Eof | `Timeout -> check name false

let expect_code sock name line code =
  match request sock line with
  | `Line reply ->
      check name
        (String.length reply >= 3
        && String.sub reply 0 3 = "ERR"
        && contains ~needle:(Printf.sprintf "\"code\":%S" code) reply)
  | `Eof | `Timeout -> check name false

(* VmRSS of a pid in kilobytes, from /proc (None off Linux). *)
let vmrss_kb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
              String.split_on_char ' ' line
              |> List.filter_map int_of_string_opt
              |> function
              | kb :: _ -> Some kb
              | [] -> None
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The integer after ["field":] in a one-line JSON reply. *)
let json_int_field text field =
  let tag = "\"" ^ field ^ "\":" in
  let tl = String.length tag and n = String.length text in
  let rec find i =
    if i + tl > n then None else if String.sub text i tl = tag then Some (i + tl) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < n && (text.[!stop] = '-' || (text.[!stop] >= '0' && text.[!stop] <= '9')) do
        incr stop
      done;
      int_of_string_opt (String.sub text start (!stop - start))

(* Shard [shard]'s primary pid in a TOPOLOGY reply: member objects
   render shard, role, socket, pid in that order. *)
let primary_pid topology shard =
  let tag = Printf.sprintf "\"shard\":%d,\"role\":\"primary\"" shard in
  let tl = String.length tag and n = String.length topology in
  let rec find i =
    if i + tl > n then None
    else if String.sub topology i tl = tag then Some (i + tl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some after -> json_int_field (String.sub topology after (n - after)) "pid"

let signature_of reply =
  let key = "\"signature\":\"" in
  let kl = String.length key and n = String.length reply in
  let rec find i =
    if i + kl > n then ""
    else if String.sub reply i kl = key then (
      match String.index_from_opt reply (i + kl) '"' with
      | Some stop -> String.sub reply (i + kl) (stop - i - kl)
      | None -> "")
    else find (i + 1)
  in
  find 0

(* A client pipelines large-reply QUERYs at [sock] and never reads: the
   daemon must drop it once the reply backlog passes the out-buffer cap
   (counted in the [conns_dropped] STATS counter, read from [section] of
   the reply), keep its RSS bounded, and keep answering other clients.
   [graph] must hold path20000 (a ~120 KB reply per QUERY). *)
let reader_never_reads ~phase ~pid ~section sock graph =
  let dropped () =
    match request sock "STATS" with
    | `Line stats -> json_int_field (section stats) "conns_dropped"
    | `Eof | `Timeout -> None
  in
  let before = Option.value ~default:0 (dropped ()) in
  let hog = connect sock in
  let q = Printf.sprintf "QUERY %s 'agg_sum{x2}([1] | E(x1,x2))'\n" graph in
  send_raw hog (String.concat "" (List.init 150 (fun _ -> q)));
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec await () =
    match dropped () with
    | Some n when n > before -> true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        ignore (Unix.select [] [] [] 0.2);
        await ()
  in
  check (phase ^ ": a client that never reads is dropped past the out-buffer cap") (await ());
  check (phase ^ ": the dropped client's socket is closed") (recv_eof ~timeout:20.0 hog);
  close_quiet hog;
  (match vmrss_kb pid with
  | None -> check (phase ^ ": RSS bounded after the unread replies (skipped: no /proc)") true
  | Some kb ->
      check (Printf.sprintf "%s: RSS bounded after the unread replies (%d KB < 512 MB)" phase kb)
        (kb < 512 * 1024));
  expect_ok sock (phase ^ ": a second client still gets PING") "PING"

(* A daemon started at the --max-conns ceiling serves every slot, refuses
   the clients past it with ERR_LIMIT_CONNS, and still answers PING. *)
let at_ceiling glqld dir ceiling =
  let sock = Filename.concat dir "fault_a_ceiling.sock" in
  let daemon =
    spawn_daemon glqld
      [ "--socket"; sock; "--max-conns"; string_of_int ceiling ]
      ~stdout_file:(Filename.concat dir "daemon_a_ceiling.out")
  in
  wait_for_socket sock;
  let parked = List.init ceiling (fun _ -> connect sock) in
  (* Accepts happen in order, so a pong on the last one means every
     parked connection holds a slot. *)
  let last = List.nth parked (ceiling - 1) in
  send_line last "PING";
  check
    (Printf.sprintf "A: %d connections at the ceiling are all served" ceiling)
    (match recv_line last with `Line reply -> contains ~needle:"pong" reply | _ -> false);
  let refused =
    List.init 20 (fun _ ->
        let fd = connect sock in
        let r =
          match recv_line fd with
          | `Line reply -> contains ~needle:"\"code\":\"ERR_LIMIT_CONNS\"" reply
          | `Eof | `Timeout -> false
        in
        close_quiet fd;
        r)
  in
  check
    (Printf.sprintf "A: %d clients past the ceiling all get ERR_LIMIT_CONNS" (List.length refused))
    (List.for_all Fun.id refused);
  let first = List.hd parked in
  send_line first "PING";
  check "A: the daemon at the ceiling still answers PING"
    (match recv_line first with `Line reply -> contains ~needle:"pong" reply | _ -> false);
  List.iter close_quiet parked;
  Unix.kill daemon Sys.sigterm;
  check "A: the daemon at the ceiling exits cleanly" (wait_exit daemon = Some 0)

(* The --max-conns ceiling: past it select(2) could not watch the
   descriptors, so glqld must refuse to start on either topology; at it,
   the daemon serves every slot and refuses the rest. *)
let max_conns_ceiling glqld dir =
  let ceiling = Glql_server.Conn_loop.max_conns_ceiling in
  List.iter
    (fun (label, extra) ->
      let pid =
        spawn_daemon glqld
          (extra @ [ "--socket"; Filename.concat dir "fault_a_over.sock"; "--max-conns"; "5000" ])
          ~stdout_file:(Filename.concat dir "daemon_a_over.out")
      in
      check
        (Printf.sprintf "A: --max-conns 5000 is refused at startup (%s)" label)
        (match wait_exit_within ~timeout:5.0 pid with Some code -> code <> 0 | None -> false))
    [ ("single daemon", []); ("router", [ "--router" ]) ];
  (* The check holds ceiling + 20 sockets open in this process. *)
  let fd_limit =
    match open_in "/proc/self/limits" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.length line > 14 && String.sub line 0 14 = "Max open files" ->
              List.find_map int_of_string_opt (String.split_on_char ' ' line)
          | _ -> scan ()
        in
        let r = scan () in
        close_in ic;
        r
  in
  match fd_limit with
  | Some n when n < ceiling + 64 ->
      check (Printf.sprintf "A: daemon at the --max-conns ceiling (skipped: fd limit %d)" n) true
  | _ -> at_ceiling glqld dir ceiling

(* --- phase A: protocol abuse against a governed daemon ------------------- *)

let phase_a glqld dir =
  let sock = Filename.concat dir "fault_a.sock" in
  let metrics_file = Filename.concat dir "metrics_a.json" in
  let daemon =
    spawn_daemon glqld
      [
        "--socket"; sock;
        "--timeout"; "0.5";
        "--max-conns"; "4";
        "--max-inbuf"; "65536";
        "--metrics-file"; metrics_file;
      ]
      ~stdout_file:(Filename.concat dir "daemon_a.out")
  in
  wait_for_socket sock;
  check "A: daemon socket appears" (Sys.file_exists sock);
  expect_ok sock "A: baseline PING" "PING";
  expect_ok sock "A: LOAD petersen" "LOAD g petersen";
  expect_ok sock "A: baseline QUERY" "QUERY g 'agg_sum{x2}([1] | E(x1,x2))'";

  (* Random-byte lines: every one of them must come back as a structured
     ERR on a live connection — never a hang, never a crash. *)
  let rng = Random.State.make [| 0x5eed |] in
  let fd = connect sock in
  let garbage_ok = ref true in
  for _ = 1 to 50 do
    let len = 1 + Random.State.int rng 200 in
    let line =
      "Z"
      ^ String.init len (fun _ ->
            let c = Char.chr (Random.State.int rng 256) in
            if c = '\n' || c = '\r' then '.' else c)
    in
    send_line fd line;
    (match recv_line fd with
    | `Line reply ->
        if
          not
            (String.length reply >= 3
            && String.sub reply 0 3 = "ERR"
            && contains ~needle:"\"code\"" reply)
        then garbage_ok := false
    | `Eof | `Timeout -> garbage_ok := false)
  done;
  close_quiet fd;
  check "A: 50 random-byte lines all answered with coded ERR" !garbage_ok;
  expect_ok sock "A: daemon healthy after garbage" "PING";

  (* Slow-loris: newline-less flood past --max-inbuf. The daemon must
     send ERR_LIMIT_INBUF and close; writing stops just past the limit
     so the error line is still readable before EOF. *)
  let flood () =
    let fd = connect sock in
    let block = String.make 8192 'a' in
    for _ = 1 to 9 do
      (* 72 KiB > 64 KiB *)
      send_raw fd block
    done;
    let got_err =
      match recv_line fd with
      | `Line reply -> contains ~needle:"\"code\":\"ERR_LIMIT_INBUF\"" reply
      | `Eof | `Timeout -> false
    in
    let got_eof = recv_eof fd in
    close_quiet fd;
    (got_err, got_eof)
  in
  let err1, eof1 = flood () in
  check "A: slow-loris flood gets ERR_LIMIT_INBUF" err1;
  check "A: flooding connection is closed" eof1;
  (* Repeat the flood; buffered garbage must not accumulate. *)
  for _ = 1 to 4 do
    ignore (flood ())
  done;
  (match vmrss_kb daemon with
  | None -> check "A: RSS bounded after floods (skipped: no /proc)" true
  | Some kb ->
      check (Printf.sprintf "A: RSS bounded after floods (%d KB < 512 MB)" kb)
        (kb < 512 * 1024));
  expect_ok sock "A: daemon healthy after floods" "PING";

  (* Mid-request disconnects: a half-written line, and a pipelined
     request followed by an abrupt close, must both be absorbed. *)
  let fd = connect sock in
  send_raw fd "QUERY g 'agg_su";
  close_quiet fd;
  let fd = connect sock in
  send_raw fd "PING\nQUERY g 'agg_sum{x2}([1] | E(x1,x2))'";
  close_quiet fd;
  ignore (Unix.select [] [] [] 0.1);
  expect_ok sock "A: daemon healthy after mid-request disconnects" "PING";

  (* Connection cap: with 4 idle connections parked, the 5th accept is
     refused with ERR_LIMIT_CONNS and closed immediately. *)
  ignore (Unix.select [] [] [] 0.3) (* let earlier closes be reaped *);
  let parked = List.init 4 (fun _ -> connect sock) in
  ignore (Unix.select [] [] [] 0.2);
  let fd5 = connect sock in
  (match recv_line fd5 with
  | `Line reply ->
      check "A: connection over the cap is refused with ERR_LIMIT_CONNS"
        (contains ~needle:"\"code\":\"ERR_LIMIT_CONNS\"" reply)
  | `Eof | `Timeout -> check "A: connection over the cap is refused with ERR_LIMIT_CONNS" false);
  check "A: refused connection sees EOF" (recv_eof fd5);
  close_quiet fd5;
  List.iter close_quiet parked;
  ignore (Unix.select [] [] [] 0.3);
  expect_ok sock "A: daemon healthy after connection pile-up" "PING";

  (* Guard trips over the wire: a graph big enough that WL overruns the
     0.5 s deadline, 3-WL overruns the cell budget, and HOM the cost
     budget — each with its own code, each leaving the daemon healthy. *)
  expect_ok sock "A: LOAD path20000" "LOAD big path20000";
  expect_code sock "A: WL past the deadline returns ERR_DEADLINE" "WL big" "ERR_DEADLINE";
  expect_code sock "A: 3-WL past the cell budget returns ERR_LIMIT_CELLS" "KWL big 3"
    "ERR_LIMIT_CELLS";
  expect_code sock "A: HOM past the cost budget returns ERR_LIMIT_COST" "HOM big 9"
    "ERR_LIMIT_COST";
  expect_ok sock "A: small work still fine after guard trips" "WL g";
  reader_never_reads ~phase:"A" ~pid:daemon ~section:Fun.id sock "big";

  (* The governance counters surfaced in STATS. *)
  (match request sock "STATS" with
  | `Line stats ->
      check "A: STATS counts rejected connections" (contains ~needle:"\"conns_rejected\":" stats);
      check "A: STATS counts dropped connections" (contains ~needle:"\"conns_dropped\":" stats);
      check "A: at least one rejection recorded"
        (not (contains ~needle:"\"conns_rejected\":0" stats));
      check "A: at least one drop recorded" (not (contains ~needle:"\"conns_dropped\":0" stats))
  | `Eof | `Timeout -> check "A: STATS after faults" false);

  Unix.kill daemon Sys.sigterm;
  check "A: SIGTERM exits cleanly after all faults" (wait_exit daemon = Some 0);
  check "A: metrics dumped after faults" (Sys.file_exists metrics_file);
  max_conns_ceiling glqld dir

(* --- phase B: snapshot faults -------------------------------------------- *)

let phase_b glqld dir =
  let snap = Filename.concat dir "fault_b.glqs" in
  let out n = Filename.concat dir (Printf.sprintf "daemon_b%d.out" n) in
  let boot n =
    let sock = Filename.concat dir (Printf.sprintf "fault_b%d.sock" n) in
    let pid = spawn_daemon glqld [ "--socket"; sock; "--snapshot"; snap ] ~stdout_file:(out n) in
    wait_for_socket sock;
    (pid, sock)
  in

  (* Garbage where the snapshot should be: boot must come up cold. *)
  let oc = open_out_bin snap in
  output_string oc "JUNKJUNKJUNKJUNK this is not a snapshot";
  close_out oc;
  let pid1, sock1 = boot 1 in
  expect_ok sock1 "B: boot survives a garbage snapshot" "PING";
  (match request sock1 "STATS" with
  | `Line stats ->
      check "B: garbage snapshot boots cold" (contains ~needle:"\"restored\":null" stats)
  | `Eof | `Timeout -> check "B: garbage snapshot boots cold" false);

  (* Build some state and SAVE it; then race a second SAVE with SIGKILL.
     The atomic tmp+rename write means the target stays the valid first
     snapshot no matter where the kill lands. *)
  expect_ok sock1 "B: LOAD cycle2000" "LOAD g cycle2000";
  expect_ok sock1 "B: WL warms the coloring cache" "WL g";
  expect_ok sock1 "B: LOAD petersen" "LOAD h petersen";
  expect_ok sock1 "B: KWL warms the coloring cache" "KWL h 2";
  expect_ok sock1 "B: first SAVE succeeds" (Printf.sprintf "SAVE %s" snap);
  let fd = connect sock1 in
  send_line fd (Printf.sprintf "SAVE %s" snap);
  Unix.kill pid1 Sys.sigkill;
  ignore (wait_exit pid1);
  close_quiet fd;

  (* Boot from whatever the kill left behind: must be the valid save. *)
  let pid2, sock2 = boot 2 in
  expect_ok sock2 "B: boot after kill-mid-SAVE" "PING";
  (match request sock2 "STATS" with
  | `Line stats ->
      check "B: kill-mid-SAVE leaves a restorable snapshot"
        (contains ~needle:"\"restored\":{" stats)
  | `Eof | `Timeout -> check "B: kill-mid-SAVE leaves a restorable snapshot" false);
  (match request sock2 "WL g" with
  | `Line reply ->
      check "B: restored coloring answers warm"
        (String.sub reply 0 2 = "OK" && contains ~needle:"\"coloring_cache\":\"hit\"" reply)
  | `Eof | `Timeout -> check "B: restored coloring answers warm" false);
  Unix.kill pid2 Sys.sigkill;
  ignore (wait_exit pid2);

  (* Truncate the snapshot mid-container: the CRC framing must reject it
     and the daemon boot cold, not crash. *)
  let whole = read_file snap in
  let oc = open_out_bin snap in
  output_string oc (String.sub whole 0 (min 20 (String.length whole)));
  close_out oc;
  let pid3, sock3 = boot 3 in
  expect_ok sock3 "B: boot survives a truncated snapshot" "PING";
  (match request sock3 "STATS" with
  | `Line stats ->
      check "B: truncated snapshot boots cold" (contains ~needle:"\"restored\":null" stats)
  | `Eof | `Timeout -> check "B: truncated snapshot boots cold" false);
  Unix.kill pid3 Sys.sigterm;
  check "B: clean exit after snapshot faults" (wait_exit pid3 = Some 0)

(* --- phase C: sharded-topology faults ------------------------------------ *)

(* Whether [pid] has exited: it no longer exists, or is a zombie nobody
   has reaped yet. *)
let gone pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | () -> (
      match read_file (Printf.sprintf "/proc/%d/stat" pid) with
      | exception Sys_error _ -> false
      | stat -> contains ~needle:") Z" stat)

(* A worker that stops answering without exiting (SIGSTOP) fails its
   health probe; with --respawn the router must kill and reap it before
   booting the replacement, so no stale process outlives its shard. *)
let wedged_worker glqld dir =
  let sock = Filename.concat dir "fault_c_wedge.sock" in
  let router =
    spawn_daemon glqld
      [ "--router"; "--workers"; "2"; "--respawn"; "--probe-interval"; "0.2"; "--probe-timeout"; "1";
        "--socket"; sock ]
      ~stdout_file:(Filename.concat dir "router_c_wedge.out")
  in
  wait_for_socket sock;
  expect_ok sock "C: LOAD a graph for the wedged worker" "LOAD w petersen";
  expect_ok sock "C: SAVE before the wedge" "SAVE";
  let shard =
    match request sock "ROUTE w" with
    | `Line reply -> Option.value ~default:0 (json_int_field reply "shard")
    | `Eof | `Timeout -> 0
  in
  let victim =
    match request sock "TOPOLOGY" with
    | `Line topology -> primary_pid topology shard
    | `Eof | `Timeout -> None
  in
  check "C: TOPOLOGY names the worker to wedge" (victim <> None);
  Option.iter
    (fun pid ->
      (* If the router never kills it, the harness must. *)
      live_daemons := pid :: !live_daemons;
      Unix.kill pid Sys.sigstop)
    victim;
  let victim_gone () = match victim with Some pid -> gone pid | None -> false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (victim_gone ())) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.1)
  done;
  check "C: the wedged worker is killed within 5 s" (victim_gone ());
  if victim_gone () then live_daemons := List.filter (fun p -> Some p <> victim) !live_daemons;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let answered = ref false in
  while (not !answered) && Unix.gettimeofday () < deadline do
    (match request sock "WL w" with
    | `Line reply when String.starts_with ~prefix:"OK" reply -> answered := true
    | _ -> ());
    if not !answered then ignore (Unix.select [] [] [] 0.2)
  done;
  check "C: the wedged worker's shard answers WL again" !answered;
  Unix.kill router Sys.sigterm;
  check "C: the router with a respawned worker exits cleanly"
    (wait_exit_within ~timeout:20.0 router = Some 0)

let phase_c glqld dir =
  let sock = Filename.concat dir "fault_c.sock" in
  let router =
    spawn_daemon glqld
      [ "--router"; "--workers"; "3"; "--respawn"; "--socket"; sock ]
      ~stdout_file:(Filename.concat dir "router_c.out")
  in
  wait_for_socket sock;
  check "C: router front socket appears" (Sys.file_exists sock);
  expect_ok sock "C: baseline PING through the router" "PING";

  (* Two graphs on two different shards: the victim's and a bystander's.
     ROUTE is the router's own placement oracle, so the harness needs no
     knowledge of the hash function. *)
  let shard_of name =
    match request sock (Printf.sprintf "ROUTE %s" name) with
    | `Line reply -> json_int_field reply "shard"
    | `Eof | `Timeout -> None
  in
  let candidates = [ "ga"; "gb"; "gc"; "gd"; "ge" ] in
  let victim_graph = List.hd candidates in
  let victim_shard = shard_of victim_graph in
  let bystander =
    List.find_opt (fun g -> shard_of g <> victim_shard && shard_of g <> None) (List.tl candidates)
  in
  check "C: two graphs land on different shards" (victim_shard <> None && bystander <> None);
  (* The router's own out buffers: its counters are the "router" section
     of the merged STATS (the top level sums the workers'). *)
  expect_ok sock "C: LOAD path20000 through the router" "LOAD big path20000";
  let router_section stats =
    let tag = "\"router\":{" in
    let tl = String.length tag and n = String.length stats in
    let rec find i =
      if i + tl > n then "" else if String.sub stats i tl = tag then String.sub stats i (n - i)
      else find (i + 1)
    in
    find 0
  in
  reader_never_reads ~phase:"C" ~pid:router ~section:router_section sock "big";
  (match request sock "STATS" with
  | `Line stats ->
      check "C: the workers kept their router links (no worker dropped a connection)"
        (json_int_field stats "conns_dropped" = Some 0)
  | `Eof | `Timeout -> check "C: STATS after the unread replies" false);
  let victim_shard = Option.value ~default:0 victim_shard in
  let bystander = Option.value ~default:"gb" bystander in
  expect_ok sock "C: LOAD victim graph" (Printf.sprintf "LOAD %s petersen" victim_graph);
  expect_ok sock "C: LOAD bystander graph" (Printf.sprintf "LOAD %s cycle12" bystander);
  let wl g =
    match request sock (Printf.sprintf "WL %s" g) with
    | `Line reply -> Some reply
    | `Eof | `Timeout -> None
  in
  let sig_before =
    match wl victim_graph with
    | Some reply when String.length reply >= 2 && String.sub reply 0 2 = "OK" -> signature_of reply
    | _ -> ""
  in
  check "C: victim WL answers before the kill" (sig_before <> "");
  (* A bare SAVE fans out to every primary's own --snapshot default —
     the same file `--respawn` restores from. *)
  expect_ok sock "C: fleet-wide SAVE" "SAVE";

  (* SIGKILL the victim's worker. With --respawn the router must bring a
     replacement up from the snapshot; until then the victim's graphs
     fail fast with ERR_SHARD_DOWN and the bystander never misses. *)
  let topology =
    match request sock "TOPOLOGY" with `Line reply -> reply | `Eof | `Timeout -> ""
  in
  let victim_pid = primary_pid topology victim_shard in
  check "C: TOPOLOGY names the victim's pid" (victim_pid <> None);
  (match victim_pid with Some pid -> Unix.kill pid Sys.sigkill | None -> ());
  (match wl bystander with
  | Some reply ->
      check "C: bystander shard answers during the outage"
        (String.length reply >= 2 && String.sub reply 0 2 = "OK")
  | None -> check "C: bystander shard answers during the outage" false);
  let deadline = Unix.gettimeofday () +. 15.0 in
  let recovered = ref None in
  while !recovered = None && Unix.gettimeofday () < deadline do
    (match wl victim_graph with
    | Some reply when String.length reply >= 2 && String.sub reply 0 2 = "OK" ->
        recovered := Some reply
    | Some reply ->
        (* The only acceptable failure during the window is the scoped
           shard-down error — anything else is a bug. *)
        if not (contains ~needle:"\"code\":\"ERR_SHARD_DOWN\"" reply) then begin
          check (Printf.sprintf "C: outage error is ERR_SHARD_DOWN (got %s)" reply) false;
          recovered := Some reply
        end
    | None -> ());
    if !recovered = None then ignore (Unix.select [] [] [] 0.2)
  done;
  (match !recovered with
  | Some reply when String.length reply >= 2 && String.sub reply 0 2 = "OK" ->
      check "C: respawned worker recovers the victim's graphs" true;
      check "C: recovery is snapshot-warm, not recomputed"
        (contains ~needle:"\"coloring_cache\":\"hit\"" reply);
      check "C: recovered WL signature matches pre-kill" (signature_of reply = sig_before)
  | _ -> check "C: respawned worker recovers the victim's graphs" false);

  (* SIGKILL the router itself: the workers are independent daemons and
     must keep answering directly on their own shard sockets. *)
  let topology2 =
    match request sock "TOPOLOGY" with `Line reply -> reply | `Eof | `Timeout -> ""
  in
  let worker_pids = List.filter_map (fun s -> primary_pid topology2 s) [ 0; 1; 2 ] in
  check "C: TOPOLOGY lists all three workers" (List.length worker_pids = 3);
  List.iter (fun pid -> live_daemons := pid :: !live_daemons) worker_pids;
  Unix.kill router Sys.sigkill;
  ignore (wait_exit router);
  ignore (Unix.select [] [] [] 0.3);
  let victim_sock = Printf.sprintf "%s.shard%d" sock victim_shard in
  expect_ok victim_sock "C: orphaned worker answers directly on its shard socket"
    (Printf.sprintf "WL %s" victim_graph);
  List.iter
    (fun s ->
      expect_ok
        (Printf.sprintf "%s.shard%d" sock s)
        (Printf.sprintf "C: worker for shard %d survives the router" s)
        "PING")
    [ 0; 1; 2 ];
  (* Cleanup by pid: with the router gone, the harness is the only thing
     that knows the workers exist. *)
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) worker_pids;
  (* The workers were reparented when the router died, so they cannot be
     waited on — poll until each is gone (or a zombie awaiting init). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (List.for_all gone worker_pids)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.2)
  done;
  check "C: workers drain on SIGTERM after the router is gone" (List.for_all gone worker_pids);
  wedged_worker glqld dir

(* --- phase D: mutation faults --------------------------------------------- *)

let phase_d glqld dir =
  let sock = Filename.concat dir "fault_d.sock" in
  let snap = Filename.concat dir "fault_d.glqs" in
  let daemon =
    spawn_daemon glqld
      [ "--socket"; sock; "--snapshot"; snap ]
      ~stdout_file:(Filename.concat dir "daemon_d.out")
  in
  wait_for_socket sock;
  check "D: daemon socket appears" (Sys.file_exists sock);
  expect_ok sock "D: LOAD cycle2000" "LOAD g cycle2000";
  expect_ok sock "D: WL warms the coloring cache" "WL g";

  (* Mutation flood: hundreds of MUTATE batches down one pipelined
     connection — adds, deletes, relabels, multi-section batches, and
     deliberately malformed ones. Every line must come back as a
     structured one-line OK or coded ERR (never a hang, never a drop),
     each mutated generation leaves a recoloring seed behind, and RSS
     must stay bounded: seeds count against the colouring budget, so a
     flood of them cannot accumulate. *)
  let fd = connect sock in
  let flood_ok = ref true in
  for i = 0 to 399 do
    let u = i mod 2000 and v = ((i * 7) + 3) mod 2000 in
    let line =
      match i mod 5 with
      | 0 -> Printf.sprintf "MUTATE g ADD_EDGES %d %d" u v
      | 1 -> Printf.sprintf "MUTATE g DEL_EDGES %d %d" u v
      | 2 -> Printf.sprintf "MUTATE g SET_LABEL %d %d.5" u (i mod 9)
      | 3 -> Printf.sprintf "MUTATE g ADD_EDGES %d" u (* odd vertex count *)
      | _ ->
          Printf.sprintf "MUTATE g ADD_EDGES %d %d DEL_EDGES %d %d SET_LABEL %d 1.0" u v v u
            u
    in
    send_line fd line;
    match recv_line fd with
    | `Line reply ->
        let ok2 = String.length reply >= 2 && String.sub reply 0 2 = "OK" in
        let err =
          String.length reply >= 3
          && String.sub reply 0 3 = "ERR"
          && contains ~needle:"\"code\"" reply
        in
        if not (ok2 || err) then flood_ok := false
    | `Eof | `Timeout -> flood_ok := false
  done;
  close_quiet fd;
  check "D: 400 mutation batches all answered with OK or coded ERR" !flood_ok;
  (match vmrss_kb daemon with
  | None -> check "D: RSS bounded after the mutation flood (skipped: no /proc)" true
  | Some kb ->
      check (Printf.sprintf "D: RSS bounded after the mutation flood (%d KB < 512 MB)" kb)
        (kb < 512 * 1024));
  expect_ok sock "D: daemon healthy after the flood" "PING";
  (match request sock "WL g" with
  | `Line reply ->
      check "D: WL answers on the flood-mutated graph"
        (String.length reply >= 2 && String.sub reply 0 2 = "OK")
  | `Eof | `Timeout -> check "D: WL answers on the flood-mutated graph" false);

  (* MUTATE racing SAVE, then SIGKILL mid-save: after one good SAVE the
     atomic tmp+rename discipline means the target must stay a valid
     snapshot no matter how the race with in-flight mutations lands, and
     the next boot must come up healthy with the graph restorable. *)
  expect_ok sock "D: first SAVE succeeds" (Printf.sprintf "SAVE %s" snap);
  let fd_save = connect sock and fd_mut = connect sock in
  for i = 0 to 9 do
    send_line fd_mut (Printf.sprintf "MUTATE g ADD_EDGES %d %d" (i * 3) ((i * 3) + 997));
    send_line fd_save (Printf.sprintf "SAVE %s" snap)
  done;
  Unix.kill daemon Sys.sigkill;
  ignore (wait_exit daemon);
  close_quiet fd_save;
  close_quiet fd_mut;
  let sock2 = Filename.concat dir "fault_d2.sock" in
  let pid2 =
    spawn_daemon glqld [ "--socket"; sock2; "--snapshot"; snap ]
      ~stdout_file:(Filename.concat dir "daemon_d2.out")
  in
  wait_for_socket sock2;
  expect_ok sock2 "D: boot after MUTATE racing SAVE" "PING";
  (match request sock2 "STATS" with
  | `Line stats ->
      check "D: the raced snapshot is still restorable" (contains ~needle:"\"restored\":{" stats)
  | `Eof | `Timeout -> check "D: the raced snapshot is still restorable" false);
  (match request sock2 "WL g" with
  | `Line reply ->
      check "D: restored graph answers after the race"
        (String.length reply >= 2 && String.sub reply 0 2 = "OK")
  | `Eof | `Timeout -> check "D: restored graph answers after the race" false);
  Unix.kill pid2 Sys.sigterm;
  check "D: clean exit after mutation faults" (wait_exit pid2 = Some 0)

(* --- phase E: model registry under races and SIGKILL --------------------- *)

let phase_e glqld dir =
  let sock = Filename.concat dir "fault_e.sock" in
  let snap = Filename.concat dir "fault_e.glqs" in
  let daemon =
    spawn_daemon glqld
      [ "--socket"; sock; "--snapshot"; snap ]
      ~stdout_file:(Filename.concat dir "daemon_e.out")
  in
  wait_for_socket sock;
  check "E: daemon socket appears" (Sys.file_exists sock);
  expect_ok sock "E: LOAD cycle2000" "LOAD g cycle2000";
  let train_line name epochs =
    Printf.sprintf "TRAIN %s ON g WITH 'deg;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS %d"
      name epochs
  in

  (* TRAIN racing MUTATE: one connection trains race0..race19 while a
     second fires mutation batches at the same graph between them. Both
     streams must answer every line with a structured OK or coded ERR
     (the recipe avoids wl, so widths are mutation-stable and a TRAIN
     that loses the race still succeeds on the generation it read), and
     the registry must end internally consistent: MODELS lists exactly
     the models whose TRAIN was acknowledged, and each answers PREDICT. *)
  let fd_train = connect sock and fd_mut = connect sock in
  let trained = ref [] and race_ok = ref true in
  let structured reply =
    (String.length reply >= 2 && String.sub reply 0 2 = "OK")
    || String.length reply >= 3
       && String.sub reply 0 3 = "ERR"
       && contains ~needle:"\"code\"" reply
  in
  for i = 0 to 19 do
    let name = Printf.sprintf "race%d" i in
    send_line fd_mut
      (Printf.sprintf "MUTATE g ADD_EDGES %d %d SET_LABEL %d 2.0" i ((i * 13) + 7) i);
    send_line fd_train (train_line name 5);
    (match recv_line fd_train with
    | `Line reply ->
        if String.length reply >= 2 && String.sub reply 0 2 = "OK" then
          trained := name :: !trained
        else if not (structured reply) then race_ok := false
    | `Eof | `Timeout -> race_ok := false);
    match recv_line fd_mut with
    | `Line reply -> if not (structured reply) then race_ok := false
    | `Eof | `Timeout -> race_ok := false
  done;
  close_quiet fd_train;
  close_quiet fd_mut;
  check "E: TRAIN racing MUTATE: every line answered OK or coded ERR" !race_ok;
  check "E: at least one raced TRAIN succeeded" (!trained <> []);
  (match request sock "MODELS" with
  | `Line reply ->
      check "E: MODELS lists every acknowledged model"
        (String.length reply >= 2
        && String.sub reply 0 2 = "OK"
        && List.for_all
             (fun name -> contains ~needle:(Printf.sprintf "\"name\":%S" name) reply)
             !trained)
  | `Eof | `Timeout -> check "E: MODELS lists every acknowledged model" false);
  (match request sock (Printf.sprintf "PREDICT %s g 0 1 2" (List.hd !trained)) with
  | `Line reply ->
      check "E: raced model answers PREDICT"
        (String.length reply >= 2 && String.sub reply 0 2 = "OK"
        && contains ~needle:"\"stale\":" reply)
  | `Eof | `Timeout -> check "E: raced model answers PREDICT" false);

  (* SIGKILL mid-TRAIN: persist one known-good model, then pipeline a
     burst of TRAINs and kill the daemon without reading the replies.
     The registry write happens only after a TRAIN completes and the
     snapshot only changes on SAVE, so the file on disk must restore a
     registry that has the saved model, none of the doomed ones, and
     no half-written entry wedging MODELS or PREDICT. *)
  expect_ok sock "E: keeper model trains" (train_line "keeper" 5);
  expect_ok sock "E: SAVE with models succeeds" (Printf.sprintf "SAVE %s" snap);
  let fd_kill = connect sock in
  for i = 0 to 9 do
    send_line fd_kill (train_line (Printf.sprintf "doomed%d" i) 400)
  done;
  ignore (Unix.select [] [] [] 0.2);
  Unix.kill daemon Sys.sigkill;
  ignore (wait_exit daemon);
  close_quiet fd_kill;
  let sock2 = Filename.concat dir "fault_e2.sock" in
  let pid2 =
    spawn_daemon glqld [ "--socket"; sock2; "--snapshot"; snap ]
      ~stdout_file:(Filename.concat dir "daemon_e2.out")
  in
  wait_for_socket sock2;
  expect_ok sock2 "E: boot after SIGKILL mid-TRAIN" "PING";
  (match request sock2 "MODELS" with
  | `Line reply ->
      check "E: restored registry holds the saved model and no doomed ones"
        (String.length reply >= 2
        && String.sub reply 0 2 = "OK"
        && contains ~needle:"\"name\":\"keeper\"" reply
        && not (contains ~needle:"doomed" reply))
  | `Eof | `Timeout ->
      check "E: restored registry holds the saved model and no doomed ones" false);
  (match request sock2 "PREDICT keeper g 0 1 2" with
  | `Line reply ->
      check "E: saved model answers PREDICT after the crash"
        (String.length reply >= 2 && String.sub reply 0 2 = "OK")
  | `Eof | `Timeout -> check "E: saved model answers PREDICT after the crash" false);
  Unix.kill pid2 Sys.sigterm;
  check "E: clean exit after model faults" (wait_exit pid2 = Some 0)

(* --- phase F: MUTATE flood racing the RETRAIN-on-stale loop --------------- *)

let phase_f glqld dir =
  let sock = Filename.concat dir "fault_f.sock" in
  let daemon =
    spawn_daemon glqld
      [ "--socket"; sock; "--retrain-stale"; "0.2" ]
      ~stdout_file:(Filename.concat dir "daemon_f.out")
  in
  wait_for_socket sock;
  check "F: daemon socket appears" (Sys.file_exists sock);
  expect_ok sock "F: LOAD cycle2000" "LOAD g cycle2000";
  (* The recipe avoids wl so its widths are mutation-stable: every
     idle-loop refit against a drifted generation must succeed rather
     than trip ERR_SCHEMA_MISMATCH. *)
  expect_ok sock "F: model trains"
    "TRAIN live ON g WITH 'deg;label' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 5";

  (* Flood mutations down one connection while a second interleaves
     PREDICTs, with the refit loop racing both from the idle path. Every
     line on both streams must come back structured — a refit holding a
     lock across the request path would surface here as a timeout. *)
  let structured reply =
    (String.length reply >= 2 && String.sub reply 0 2 = "OK")
    || String.length reply >= 3
       && String.sub reply 0 3 = "ERR"
       && contains ~needle:"\"code\"" reply
  in
  let fd_mut = connect sock and fd_pred = connect sock in
  let race_ok = ref true in
  for i = 0 to 199 do
    send_line fd_mut
      (Printf.sprintf "MUTATE g ADD_EDGES %d %d" (i mod 2000) (((i * 11) + 5) mod 2000));
    (match recv_line fd_mut with
    | `Line reply -> if not (structured reply) then race_ok := false
    | `Eof | `Timeout -> race_ok := false);
    if i mod 10 = 0 then begin
      send_line fd_pred "PREDICT live g 0 1 2";
      match recv_line fd_pred with
      | `Line reply ->
          if not (String.length reply >= 2 && String.sub reply 0 2 = "OK") then
            race_ok := false
      | `Eof | `Timeout -> race_ok := false
    end;
    (* Let the 0.2 s refit timer overlap the flood rather than only
       trail it. *)
    if i mod 50 = 49 then ignore (Unix.select [] [] [] 0.25)
  done;
  close_quiet fd_mut;
  close_quiet fd_pred;
  check "F: MUTATE flood racing retrain: every line answered structurally" !race_ok;
  (match vmrss_kb daemon with
  | None -> check "F: RSS bounded under the retrain race (skipped: no /proc)" true
  | Some kb ->
      check (Printf.sprintf "F: RSS bounded under the retrain race (%d KB < 512 MB)" kb)
        (kb < 512 * 1024));

  (* Quiescence: with the flood stopped, the idle loop must converge the
     model onto the final generation — PREDICT settles at stale:false
     and stays structurally sound. *)
  let deadline = Unix.gettimeofday () +. 15.0 in
  let settled = ref false in
  while (not !settled) && Unix.gettimeofday () < deadline do
    (match request sock "PREDICT live g 0 1 2" with
    | `Line reply
      when String.length reply >= 2
           && String.sub reply 0 2 = "OK"
           && contains ~needle:"\"stale\":false" reply ->
        settled := true
    | _ -> ());
    if not !settled then ignore (Unix.select [] [] [] 0.2)
  done;
  check "F: PREDICT settles to stale:false after the flood" !settled;
  (match request sock "MODELS" with
  | `Line reply ->
      let occurrences needle s =
        let nl = String.length needle and sl = String.length s in
        let count = ref 0 in
        for i = 0 to sl - nl do
          if String.sub s i nl = needle then incr count
        done;
        !count
      in
      check "F: MODELS holds exactly the trained model"
        (String.length reply >= 2
        && String.sub reply 0 2 = "OK"
        && contains ~needle:"\"name\":\"live\"" reply
        && occurrences "\"name\":" reply = 1)
  | `Eof | `Timeout -> check "F: MODELS holds exactly the trained model" false);
  (match request sock "STATS" with
  | `Line stats ->
      check "F: STATS counts idle-loop refits"
        (match json_int_field stats "retrains_stale" with Some n -> n >= 1 | None -> false)
  | `Eof | `Timeout -> check "F: STATS counts idle-loop refits" false);
  Unix.kill daemon Sys.sigterm;
  check "F: clean exit after the retrain race" (wait_exit daemon = Some 0)

(* --- phase G: a flood through the router ---------------------------------- *)

(* Pipeline [n] PINGs at [sock] in one write and read the [n] pongs: ages
   the daemon's latency window to full, as a long-lived one has it. *)
let prefill sock n =
  let fd = connect sock in
  send_raw fd (String.concat "" (List.init n (fun _ -> "PING\n")));
  let chunk = Bytes.create 65536 in
  let rec drain left =
    left <= 0
    ||
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> false
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> false
        | k ->
            let lines = ref 0 in
            Bytes.iter (fun c -> if c = '\n' then incr lines) (Bytes.sub chunk 0 k);
            drain (left - !lines)
        | exception Unix.Unix_error _ -> false)
  in
  let ok = drain n in
  close_quiet fd;
  ok

(* A router and two workers, each with a full latency window, take a
   flood: one client writes a PING/WL/HOM/triangle-QUERY/STATS mix as
   fast as the socket takes it for 5 s, holding up to [in_flight]
   requests unanswered, and reads replies as they arrive. Request cost
   must not grow with the daemons' age, so replies complete in every
   second. The cap keeps the router's unbounded request buffering (it has
   no backpressure yet) from deciding the outcome: without it the router
   spends the CPU the workers need on queueing the client's bytes. *)
let phase_g glqld dir =
  let sock = Filename.concat dir "fault_g.sock" in
  let router =
    spawn_daemon glqld
      [ "--router"; "--workers"; "2"; "--socket"; sock ]
      ~stdout_file:(Filename.concat dir "router_g.out")
  in
  wait_for_socket sock;
  check "G: router front socket appears" (Sys.file_exists sock);
  expect_ok sock "G: LOAD a" "LOAD a petersen";
  expect_ok sock "G: LOAD b" "LOAD b cycle12";
  let topology =
    match request sock "TOPOLOGY" with `Line reply -> reply | `Eof | `Timeout -> ""
  in
  let workers = List.filter_map (primary_pid topology) [ 0; 1 ] in
  check "G: TOPOLOGY names both workers" (List.length workers = 2);
  let window = Glql_server.Metrics.window in
  check "G: every latency window is filled before the flood"
    (List.for_all
       (fun s -> prefill s window)
       [ sock; Printf.sprintf "%s.shard0" sock; Printf.sprintf "%s.shard1" sock ]);
  let triangles =
    "'agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])'"
  in
  (* A monitoring agent's share of STATS: one in 29 requests. *)
  let mix =
    List.concat
      (List.init 4 (fun _ ->
           [ "PING"; "WL a"; "HOM b 4"; "QUERY a " ^ triangles; "WL b"; "QUERY b " ^ triangles;
             "HOM a 4" ]))
    @ [ "STATS" ]
  in
  let lines = Array.of_list (List.map (fun l -> l ^ "\n") mix) in
  let in_flight = 1024 in
  let fd = connect sock in
  Unix.set_nonblock fd;
  let seconds = 5 in
  let per_second = Array.make seconds 0 in
  let sent = ref 0 and received = ref 0 and bad = ref 0 in
  let pending = Buffer.create 65536 in
  let line = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let start = Unix.gettimeofday () in
  let rec pump () =
    let elapsed = Unix.gettimeofday () -. start in
    if elapsed < float_of_int seconds then begin
      while !sent - !received < in_flight && Buffer.length pending < 65536 do
        Buffer.add_string pending lines.(!sent mod Array.length lines);
        incr sent
      done;
      let want_write = if Buffer.length pending > 0 then [ fd ] else [] in
      let readable, writable, _ = Unix.select [ fd ] want_write [] 0.05 in
      if writable <> [] then begin
        let out = Buffer.contents pending in
        match Unix.write_substring fd out 0 (String.length out) with
        | n ->
            Buffer.clear pending;
            Buffer.add_substring pending out n (String.length out - n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      end;
      if readable <> [] then begin
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            let second = min (seconds - 1) (int_of_float (Unix.gettimeofday () -. start)) in
            for i = 0 to n - 1 do
              match Bytes.get chunk i with
              | '\n' ->
                  incr received;
                  per_second.(second) <- per_second.(second) + 1;
                  if not (String.starts_with ~prefix:"OK" (Buffer.contents line)) then incr bad;
                  Buffer.clear line
              | c -> Buffer.add_char line c
            done
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      end;
      pump ()
    end
  in
  pump ();
  let counts = String.concat "/" (Array.to_list (Array.map string_of_int per_second)) in
  check
    (Printf.sprintf "G: replies complete in every second of the flood (%s per second)" counts)
    (Array.for_all (fun n -> n > 0) per_second);
  check (Printf.sprintf "G: every reply is OK (%d not)" !bad) (!bad = 0);
  (match List.map vmrss_kb (router :: workers) with
  | rss when List.mem None rss -> check "G: RSS bounded under the flood (skipped: no /proc)" true
  | rss ->
      let kb = List.fold_left (fun acc r -> acc + Option.value ~default:0 r) 0 rss in
      check (Printf.sprintf "G: summed RSS bounded under the flood (%d KB < 512 MB)" kb)
        (kb < 512 * 1024));
  close_quiet fd;
  expect_ok sock "G: PING answers after the flood" "PING";
  Unix.kill router Sys.sigterm;
  check "G: the router exits after the flood" (wait_exit_within ~timeout:30.0 router <> None)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit kill_all;
  let glqld =
    match Sys.argv with
    | [| _; d |] -> d
    | _ ->
        prerr_endline "usage: fault <glqld.exe>";
        exit 2
  in
  let dir = Filename.temp_file "glqld_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  phase_a glqld dir;
  phase_b glqld dir;
  phase_c glqld dir;
  phase_d glqld dir;
  phase_e glqld dir;
  phase_f glqld dir;
  phase_g glqld dir;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.printf "%d fault-injection check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "all fault-injection checks passed"
