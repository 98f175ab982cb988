(* Expected replies: the stream replayed in-process through a twin
   Server with the daemon's default configuration.

   B lines (reads of graphs no write touches) are answered once per
   distinct line — their replies do not depend on when they run. Writes
   are applied in stream order; the sender keeps per-key order, so the
   twin ends in the daemon's state. F lines, the closed-loop checks sent
   after the daemon is quiesced, are answered last. Output: idx TAB
   digest per B / F line. *)

module S = Stream
module Server = Glql_server.Server

let twin () = Server.create { Server.default_config with Server.socket_path = None }

let run ~stream ~out =
  let reqs = S.load stream in
  let t = twin () in
  let memo = Hashtbl.create 256 in
  let oc = open_out out in
  let answer (r : S.req) =
    let cmd = S.command r.S.line in
    match Hashtbl.find_opt memo r.S.line with
    | Some d -> d
    | None ->
        let d = S.digest ~cmd (Server.handle_line t r.S.line) in
        if r.S.check = 'B' then Hashtbl.replace memo r.S.line d;
        d
  in
  Array.iter
    (fun (r : S.req) ->
      if r.S.phase = "setup" then begin
        let reply = Server.handle_line t r.S.line in
        if S.status reply <> "OK" then failwith ("replay setup line failed: " ^ reply)
      end
      else
        match r.S.check with
        | 'B' | 'F' -> Printf.fprintf oc "%d\t%s\n" r.S.idx (answer r)
        | _ -> if r.S.cls = 'W' then ignore (Server.handle_line t r.S.line))
    reqs;
  close_out oc
