(* The traced replay: the per-layer half of the benchmark.

   The nominal phase of the stream is replayed in-process, in stream
   order. Each request runs through a twin Server (its
   [Server.handle_line] span), and then the calls that request makes
   into the layers below are repeated on standalone Registry / Cache /
   Models instances kept in the same state as the twin: parse, plan
   lookup, kernel, featurize, predict, mutate, reply encoding. Those
   child spans are timed right after their parent, so they do not nest
   in it in time; the Server's self time is its span minus the summed
   durations of its children. Every span is benchmark-side — the program
   carries no tracing for this — kept in memory and written out at the
   end, one JSON object per line.

   The replay runs twice on fresh instances, first with span recording
   off, then on; the wall-time difference is the recording overhead.

   Layer costs no request pays on the warm path (cold refinement, a plan
   compile, a feature matrix with its cache cleared) are measured once
   per distinct input of the stream. Output: one "name TAB value TAB
   note" line per metric. *)

module S = Stream
module Server = Glql_server.Server
module P = Glql_server.Protocol
module Registry = Glql_server.Registry
module Cache = Glql_server.Cache
module Models = Glql_server.Models
module Featurize = Glql_server.Featurize
module Line_buf = Glql_server.Line_buf
module Router = Glql_server.Router
module Json = Glql_util.Json
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Count = Glql_hom.Count
module Tree = Glql_hom.Tree
module Expr = Glql_gel.Expr
module Normal_form = Glql_gel.Normal_form

(* Nominal requests replayed in-process, so the two replays of a long,
   light stream stay within the run's time. *)
let max_replayed = 10_000

(* --- spans ------------------------------------------------------------------ *)

type span = { id : int; name : string; t0 : int64; t1 : int64; parent : int; req : int }

type recorder = { mutable on : bool; mutable spans : span list; mutable next_id : int }

let recorder () = { on = false; spans = []; next_id = 1 }

let now = Glql_util.Clock.now_ns

(* Time [f] as a span [name] under [parent]; returns (result, span id). *)
let span r ~name ~parent ~req f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  let id = r.next_id in
  r.next_id <- id + 1;
  if r.on then r.spans <- { id; name; t0; t1; parent; req } :: r.spans;
  (x, id)

let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int s.id);
                ("name", Json.Str s.name);
                ("start_ns", Json.Int (Int64.to_int s.t0));
                ("end_ns", Json.Int (Int64.to_int s.t1));
                ("parent", Json.Int s.parent);
                ("req", Json.Int s.req);
              ]));
      output_char oc '\n')
    (List.rev spans);
  close_out oc

(* --- the standalone layer instances -------------------------------------- *)

type env = {
  twin : Server.t;
  reg : Registry.t;
  cache : Cache.t;
  models : Models.t;
  base : (string, Cr.result) Hashtbl.t;  (* latest solo colouring per graph *)
  incremental : float list ref;  (* Cr.run_incremental samples, ms *)
}

let cells = Server.default_config.Server.max_table_cells

let fresh_cache () =
  let c = Server.default_config in
  Cache.create ~plan_bytes:c.Server.plan_cache_bytes ~coloring_bytes:c.Server.coloring_cache_bytes
    ~feature_bytes:c.Server.feature_cache_bytes ~plan_capacity:c.Server.plan_cache_capacity
    ~coloring_capacity:c.Server.coloring_cache_capacity ()

let make_env () =
  {
    twin = Oracle.twin ();
    reg = Registry.create ();
    cache = fresh_cache ();
    models = Models.create ();
    base = Hashtbl.create 16;
    incremental = ref [];
  }

let entry env g =
  match Registry.find_entry env.reg g with Ok e -> e | Error e -> failwith e

let to_ops =
  List.map (function
    | P.M_add_edge (u, v) -> Registry.Add_edge (u, v)
    | P.M_del_edge (u, v) -> Registry.Del_edge (u, v)
    | P.M_set_label (v, fs) -> Registry.Set_label (v, fs))

(* The layer calls one request makes, as child spans of [parent]. *)
let children env r ~parent ~req (parsed : P.parsed) =
  let sp name f = fst (span r ~name ~parent ~req f) in
  match parsed.P.req with
  | P.Query (g, src) | P.Explain (g, src) -> (
      let plan = sp "cache.plan" (fun () -> Cache.plan env.cache src) in
      match plan with
      | Ok (plan, _) -> (
          let graph, _ = entry env g in
          match plan.Cache.layered with
          | Some nf -> ignore (sp "gel.layered" (fun () -> Normal_form.eval nf graph))
          | None -> ignore (sp "gel.direct" (fun () -> Expr.eval graph plan.Cache.expr)))
      | Error _ -> ())
  | P.Wl (g, _) ->
      let graph, gen = entry env g in
      let res, _ = sp "cache.cr" (fun () -> Cache.cr env.cache ~graph_name:g ~gen graph) in
      Hashtbl.replace env.base g res
  | P.Kwl (g, k) ->
      let graph, gen = entry env g in
      ignore (sp "cache.kwl" (fun () -> Cache.kwl env.cache ~graph_name:g ~gen ~k graph))
  | P.Hom (g, size) ->
      let graph, _ = entry env g in
      let patterns = Tree.all_free_trees_up_to size in
      ignore (sp "hom.profile" (fun () -> Count.profile patterns graph))
  | P.Mutate (g, ops) -> (
      let old_graph, old_gen = entry env g in
      let base =
        match Hashtbl.find_opt env.base g with
        | Some b -> b
        | None -> fst (Cache.cr env.cache ~graph_name:g ~gen:old_gen old_graph)
      in
      let outcome =
        sp "registry.mutate" (fun () ->
            match Registry.mutate env.reg ~name:g (to_ops ops) with
            | Ok o ->
                if o.Registry.m_gen <> o.Registry.m_old_gen then
                  Cache.note_mutation env.cache ~graph_name:g ~old_gen:o.Registry.m_old_gen
                    ~gen:o.Registry.m_gen ~touched_adj:o.Registry.m_touched_adj
                    ~touched_lab:o.Registry.m_touched_lab;
                Some o
            | Error _ -> None)
      in
      match outcome with
      | Some o ->
          (* What the next WL of this graph will do: recolour from the
             superseded colouring. Measured here, outside any span. *)
          let t0 = now () in
          let res, _ =
            Cr.run_incremental ~base ~touched_adj:o.Registry.m_touched_adj
              ~touched_lab:o.Registry.m_touched_lab o.Registry.m_graph
          in
          env.incremental := (Int64.to_float (Int64.sub (now ()) t0) /. 1e6) :: !(env.incremental);
          Hashtbl.replace env.base g res
      | None -> ())
  | P.Featurize (g, recipe, mode) -> (
      let graph, gen = entry env g in
      match Featurize.parse_recipe recipe with
      | Ok cols ->
          ignore
            (sp "featurize.build" (fun () ->
                 Featurize.build ~cache:env.cache ~graph_name:g ~gen ~max_cells:cells mode graph cols))
      | Error _ -> ())
  | P.Predict (model, g, vertices) ->
      ignore
        (sp "models.predict" (fun () ->
             Models.predict ~registry:env.reg ~cache:env.cache ~models:env.models ~max_cells:cells
               ~model ~graph:g ~vertices ()))
  | P.Predict_batch (model, gs) ->
      List.iter
        (fun g ->
          ignore
            (sp "models.predict" (fun () ->
                 Models.predict ~registry:env.reg ~cache:env.cache ~models:env.models
                   ~max_cells:cells ~model ~graph:g ~vertices:[] ())))
        gs
  | P.Train spec ->
      ignore
        (sp "models.train" (fun () ->
             Models.train ~registry:env.reg ~cache:env.cache ~models:env.models ~max_cells:cells spec))
  | P.Graphs | P.Models -> ignore (sp "registry.list" (fun () -> Registry.list env.reg))
  | P.Load (name, spec) -> ignore (sp "registry.load" (fun () -> Registry.register env.reg ~name ~spec))
  | _ -> ()

(* One request: twin handle_line, then parse, layer calls and reply
   encoding on the standalone side. Returns the reply. *)
let replay_one env r (q : S.req) =
  let root = r.next_id in
  r.next_id <- root + 1;
  let t0 = now () in
  let reply, hl = span r ~name:"server.handle_line" ~parent:root ~req:q.S.idx (fun () ->
      Server.handle_line env.twin q.S.line)
  in
  let parsed, _ = span r ~name:"protocol.parse" ~parent:hl ~req:q.S.idx (fun () -> P.parse_request q.S.line) in
  (match parsed with Ok p -> children env r ~parent:hl ~req:q.S.idx p | Error _ -> ());
  (if String.length reply > 3 && String.sub reply 0 3 = "OK " then
     match Json.parse (String.sub reply 3 (String.length reply - 3)) with
     | Ok j -> ignore (span r ~name:"protocol.encode" ~parent:hl ~req:q.S.idx (fun () -> P.ok j))
     | Error _ -> ());
  if r.on then
    r.spans <-
      { id = root; name = "request"; t0; t1 = now (); parent = 0; req = q.S.idx } :: r.spans;
  reply

let setup env r reqs =
  List.iter
    (fun (q : S.req) ->
      let reply = replay_one env r q in
      if S.status reply <> "OK" then failwith ("trace setup line failed: " ^ reply))
    reqs

(* --- metrics ------------------------------------------------------------------ *)

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(Array.length a / 2)

let time_ms f =
  let t0 = now () in
  ignore (f ());
  Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* Fixed requests for commands a workload's stream does not carry, so
   every handle_line metric prints on every workload (noted "probe"). *)
let probes =
  [
    ("PING", "PING");
    ("GRAPHS", "GRAPHS");
    ("MODELS", "MODELS");
    ("STATS", "STATS");
    ("QUERY", "QUERY pet 'agg_sum{x2}([1] | E(x1,x2))'");
    ("EXPLAIN", "EXPLAIN pet 'agg_sum{x2}([1] | E(x1,x2))'");
    ("WL", "WL pet");
    ("KWL", "KWL pet 2");
    ("HOM", "HOM pet 4");
    ("MUTATE", "MUTATE spare ADD_EDGES 0 20 DEL_EDGES 0 20");
    ("FEATURIZE", "FEATURIZE pet 'deg;wl;hom3'");
    ("PREDICT", "PREDICT vm_pet pet 0 1 2");
    ("TRAIN", "TRAIN probe_model ON pet WITH 'deg;hom3' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 20 SEED 1");
  ]

let run ~stream ~latencies ~member_stats ~spans_out ~out =
  let all = S.load stream in
  let setup_reqs = S.in_phase all "setup" in
  let nominal = List.filteri (fun i _ -> i < max_replayed) (S.in_kind all "nominal") in
  let replay r =
    let env = make_env () in
    setup env { r with on = false } setup_reqs;
    let t0 = now () in
    let replies = List.map (fun q -> (q, replay_one env r q)) nominal in
    (env, replies, Int64.to_float (Int64.sub (now ()) t0) /. 1e9)
  in
  let _, _, secs_off = replay (recorder ()) in
  let r = recorder () in
  r.on <- true;
  let env, replies, secs_on = replay r in
  let spans = r.spans in
  write_spans spans_out spans;
  let by_name name = List.filter (fun s -> s.name = name) spans in
  let durs name = List.map dur_ms (by_name name) in
  let metrics = ref [] in
  let add ?(note = "") name value = metrics := (name, value, note) :: !metrics in
  (* Framing and parsing over the workload's own request bytes. *)
  let bytes = String.concat "" (List.map (fun (q : S.req) -> q.S.line ^ "\n") nominal) in
  let feed_once () =
    let lb = Line_buf.create () in
    let chunk = 65536 in
    let b = Bytes.unsafe_of_string bytes in
    let off = ref 0 in
    while !off < Bytes.length b do
      let len = min chunk (Bytes.length b - !off) in
      ignore (Line_buf.feed lb b ~off:!off ~len);
      off := !off + len
    done
  in
  let kb = float_of_int (String.length bytes) /. 1024.0 in
  add "line_buf.feed_us_per_kb" (median (List.init 7 (fun _ -> time_ms feed_once)) *. 1e3 /. kb);
  add "protocol.parse_us" (mean (durs "protocol.parse") *. 1e3);
  let reply_bytes = List.map (fun (_, reply) -> float_of_int (String.length reply + 1)) replies in
  let encode_ms = List.fold_left ( +. ) 0.0 (durs "protocol.encode") in
  let encoded_kb =
    List.fold_left
      (fun acc (_, reply) ->
        if String.length reply > 3 && String.sub reply 0 3 = "OK " then
          acc +. (float_of_int (String.length reply) /. 1024.0)
        else acc)
      0.0 replies
  in
  add "protocol.encode_us_per_kb" (encode_ms *. 1e3 /. encoded_kb);
  add "protocol.reply_kb" (mean reply_bytes /. 1024.0);
  (* handle_line per command, probing commands the stream lacks. *)
  let hl = by_name "server.handle_line" in
  let cmd_of = Hashtbl.create 64 in
  List.iter (fun (q : S.req) -> Hashtbl.replace cmd_of q.S.idx (S.command q.S.line)) nominal;
  List.iter
    (fun (cmd, line) ->
      match List.filter (fun s -> Hashtbl.find_opt cmd_of s.req = Some cmd) hl with
      | [] ->
          add ~note:"probe" ("server.handle_line_ms." ^ cmd)
            (median (List.init 3 (fun _ -> time_ms (fun () -> Server.handle_line env.twin line))))
      | ss -> add ("server.handle_line_ms." ^ cmd) (mean (List.map dur_ms ss)))
    probes;
  (* Server self time: its span minus its children's durations. *)
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace child_ms s.parent
        (dur_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    spans;
  let self =
    List.map
      (fun s -> Float.max 0.0 (dur_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id)))
      hl
  in
  add "server.self_ms" (mean self);
  (* Waiting: end-to-end latency minus the same request's replayed
     service time, over the light requests (their p99). *)
  (match latencies with
  | "" -> ()
  | path ->
      let service = Hashtbl.create 1024 in
      List.iter (fun s -> Hashtbl.replace service s.req (dur_ms s)) hl;
      let light = Hashtbl.create 1024 in
      List.iter (fun (q : S.req) -> if q.S.cls = 'L' then Hashtbl.replace light q.S.idx ()) nominal;
      let waits = ref [] in
      let ic = open_in path in
      (try
         while true do
           match String.split_on_char '\t' (input_line ic) with
           | idx :: due :: _ :: recv :: _ when idx.[0] <> '#' -> (
               let idx = int_of_string idx in
               match Hashtbl.find_opt service idx with
               | Some svc when Hashtbl.mem light idx ->
                   let e2e = (float_of_string recv -. float_of_string due) /. 1e3 in
                   waits := Float.max 0.0 (e2e -. svc) :: !waits
               | _ -> ())
           | _ -> ()
         done
       with End_of_file -> close_in ic);
      let a = Array.of_list !waits in
      Array.sort compare a;
      let n = Array.length a in
      add "server.wait_ms" (if n = 0 then nan else a.(min (n - 1) (n * 99 / 100))));
  (* Plan compile on a miss: every distinct source of the stream, cold. *)
  let sources = Hashtbl.create 64 in
  List.iter
    (fun (q : S.req) ->
      match P.parse_request q.S.line with
      | Ok { P.req = P.Query (_, src) | P.Explain (_, src); _ } -> Hashtbl.replace sources src ()
      | _ -> ())
    nominal;
  let src_list = Hashtbl.fold (fun s () acc -> s :: acc) sources [] in
  add "cache.plan_ms"
    (mean (List.map (fun src -> time_ms (fun () -> Cache.plan (fresh_cache ()) src)) src_list));
  (* LOAD: the set-up's graphs, into a fresh registry. *)
  let loads =
    List.filter_map
      (fun (q : S.req) ->
        match P.parse_request q.S.line with
        | Ok { P.req = P.Load (name, spec); _ } -> Some (name, spec)
        | _ -> None)
      setup_reqs
  in
  let reg = Registry.create () in
  add "registry.load_ms"
    (mean (List.map (fun (name, spec) -> time_ms (fun () -> Registry.register reg ~name ~spec)) loads));
  let probe_or name samples probe =
    match samples with
    | [] -> add ~note:"probe" name (median (List.init 3 (fun _ -> probe ())))
    | xs -> add name (mean xs)
  in
  let pet, _ = entry env "pet" in
  let probe_cache = fresh_cache () in
  probe_or "registry.mutate_ms" (durs "registry.mutate") (fun () ->
      time_ms (fun () ->
          Registry.mutate env.reg ~name:"spare" [ Registry.Add_edge (0, 20); Registry.Del_edge (0, 20) ]));
  let plan_of src = match Cache.plan probe_cache src with Ok (p, _) -> p | Error e -> failwith e in
  probe_or "gel.direct_ms" (durs "gel.direct") (fun () ->
      let p = plan_of "agg_sum{x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])" in
      time_ms (fun () -> Expr.eval pet p.Cache.expr));
  probe_or "gel.layered_ms" (durs "gel.layered") (fun () ->
      match (plan_of "agg_sum{x2}([1] | E(x1,x2))").Cache.layered with
      | Some nf -> time_ms (fun () -> Normal_form.eval nf pet)
      | None -> nan);
  (* Cold kernels, once per distinct graph of the stream. *)
  let graphs_of pred =
    List.sort_uniq compare
      (List.filter_map
         (fun (q : S.req) -> match P.parse_request q.S.line with Ok p -> pred p.P.req | Error _ -> None)
         nominal)
  in
  let wl_graphs = graphs_of (function P.Wl (g, _) -> Some g | _ -> None) in
  probe_or "wl.refine_ms"
    (List.map (fun g -> time_ms (fun () -> Cr.run (fst (entry env g)))) wl_graphs)
    (fun () -> time_ms (fun () -> Cr.run pet));
  probe_or "wl.incremental_ms" !(env.incremental) (fun () ->
      let base = Cr.run pet in
      time_ms (fun () -> Cr.run_incremental ~base ~touched_adj:[] ~touched_lab:[] pet));
  let kwl_graphs = graphs_of (function P.Kwl (g, k) -> Some (g, k) | _ -> None) in
  probe_or "kwl.refine_ms"
    (List.map
       (fun (g, k) -> time_ms (fun () -> Kwl.run_joint ~k ~variant:Kwl.Folklore [ fst (entry env g) ]))
       kwl_graphs)
    (fun () -> time_ms (fun () -> Kwl.run_joint ~k:2 ~variant:Kwl.Folklore [ pet ]));
  probe_or "hom.profile_ms" (durs "hom.profile") (fun () ->
      time_ms (fun () -> Count.profile (Tree.all_free_trees_up_to 4) pet));
  (* Feature matrices with the feature cache cleared: a fresh cache whose
     colourings are computed first, outside the timing. *)
  let feats =
    graphs_of (function P.Featurize (g, recipe, mode) -> Some (g, recipe, mode) | _ -> None)
  in
  let featurize (g, recipe, mode) =
    let graph, gen = entry env g in
    let cache = fresh_cache () in
    ignore (Cache.cr cache ~graph_name:g ~gen graph);
    match Featurize.parse_recipe recipe with
    | Ok cols ->
        time_ms (fun () -> Featurize.build ~cache ~graph_name:g ~gen ~max_cells:cells mode graph cols)
    | Error e -> failwith e
  in
  probe_or "featurize.build_ms" (List.map featurize feats) (fun () ->
      featurize ("pet", "deg;wl;hom3", P.Fm_vertex));
  probe_or "models.predict_ms" (durs "models.predict") (fun () ->
      time_ms (fun () ->
          Models.predict ~registry:env.reg ~cache:env.cache ~models:env.models ~model:"vm_pet"
            ~graph:"pet" ~vertices:[ 0; 1; 2 ] ()));
  probe_or "models.train_ms" (durs "models.train") (fun () ->
      match
        P.parse_train "probe_model"
          [ "ON"; "pet"; "WITH"; "deg;hom3"; "TARGET"; "agg_sum{x2}([1] | E(x1,x2))"; "EPOCHS"; "20" ]
      with
      | Ok spec -> time_ms (fun () -> Models.train ~registry:env.reg ~cache:env.cache ~models:env.models spec)
      | Error e -> failwith e);
  (* STATS with a full latency window, on a twin that has served one. *)
  let full = Oracle.twin () in
  for _ = 1 to 66_000 do
    ignore (Server.handle_line full "PING")
  done;
  add "metrics.stats_ms" (median (List.init 5 (fun _ -> time_ms (fun () -> Server.handle_line full "STATS"))));
  (* Router merge of recorded member STATS payloads. *)
  (match member_stats with
  | "" -> ()
  | path ->
      let ic = open_in path in
      let parts = ref [] in
      (try
         while true do
           let line = input_line ic in
           match Json.parse (String.sub line 3 (String.length line - 3)) with
           | Ok j -> parts := (List.length !parts, "primary", Some j) :: !parts
           | Error _ -> ()
         done
       with End_of_file -> close_in ic);
      let parts = List.rev !parts in
      let router = Json.Obj [ ("requests", Json.Int 0) ] in
      add "router.merge_ms"
        (median
           (List.init 9 (fun _ ->
                time_ms (fun () -> Router.merge_stats ~router ~shards:(List.length parts) ~parts)))));
  add "trace.overhead_share" ((secs_on -. secs_off) /. secs_off);
  let oc = open_out out in
  List.iter (fun (name, value, note) -> Printf.fprintf oc "%s\t%.6f\t%s\n" name value note) (List.rev !metrics);
  close_out oc
