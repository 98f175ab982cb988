(* glqlbench — the native half of the glqld service benchmark. The
   orchestration (streams, daemons, metrics) lives in perfbench/run.py,
   which calls these subcommands:

     glqlbench setup  --socket S [--socket S2 ...] --stream F
     glqlbench send   --socket S --stream F --out R --keep K
     glqlbench final  --socket S --stream F --out R
     glqlbench oracle --stream F --out E
     glqlbench trace  --stream F --out M --spans SPANS [--latencies R] [--member-stats F]
     glqlbench forward --socket ROUTER
     glqlbench ask    --socket S --line L [--line L ...] *)

let () =
  let args = Array.to_list Sys.argv in
  let cmd, rest = match args with _ :: c :: r -> (c, r) | _ -> ("", []) in
  let sockets = ref [] and stream = ref "" and out = ref "" and keep = ref "" in
  let latencies = ref "" and spans = ref "" in
  let stats_file = ref "" in
  let pids = ref [] and lines = ref [] in
  let spec =
    [
      ("--socket", Arg.String (fun s -> sockets := !sockets @ [ s ]), "PATH daemon socket");
      ("--stream", Arg.Set_string stream, "FILE request stream");
      ("--out", Arg.Set_string out, "FILE output");
      ("--keep", Arg.Set_string keep, "FILE full replies of STATS lines");
      ("--latencies", Arg.Set_string latencies, "FILE send output of the same stream");
      ("--spans", Arg.Set_string spans, "FILE span output");
      ("--line", Arg.String (fun l -> lines := l :: !lines), "LINE request sent by ask");
      ("--pid", Arg.Int (fun p -> pids := !pids @ [ p ]), "PID daemon process whose memory is sampled");
      ("--member-stats", Arg.Set_string stats_file, "FILE member STATS replies, one per line");
    ]
  in
  let usage = "glqlbench (setup|send|final|oracle|trace|forward|ask) [options]" in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("glqlbench" :: rest)) spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let socket () = match !sockets with s :: _ -> s | [] -> failwith "--socket is required" in
  match cmd with
  | "setup" -> Sender.setup ~sockets:!sockets ~stream:!stream
  | "send" -> Sender.run ~socket:(socket ()) ~stream:!stream ~out:!out ~keep_file:!keep ~pids:!pids
  | "final" -> Sender.final ~socket:(socket ()) ~stream:!stream ~phase:"final" ~out:!out
  | "oracle" -> Oracle.run ~stream:!stream ~out:!out
  | "trace" ->
      Trace.run ~stream:!stream ~latencies:!latencies ~member_stats:!stats_file ~spans_out:!spans
        ~out:!out
  | "ask" ->
      let fd = Sender.connect (socket ()) 500 in
      List.iter print_endline (Sender.closed_loop fd (List.rev !lines));
      Unix.close fd
  | "forward" -> Printf.printf "%.3f\n" (Sender.forward ~socket:(socket ()))
  | _ ->
      prerr_endline usage;
      exit 2
