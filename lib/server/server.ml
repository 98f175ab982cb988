(* The glqld request loop.

   Concurrency model: the main domain owns all sockets and runs the
   select loop of {!Conn_loop}; each pass hands over whatever complete
   request lines arrived on any connection, and the whole batch is parsed
   once and dispatched through Pool.parallel_map_array, so requests from
   concurrent clients run on the domain pool in parallel while replies
   are queued back in arrival order per connection. A client that stops
   reading stalls only itself (and is dropped past the out-buffer cap).
   Handlers are pure apart from the mutex-guarded caches/metrics/registry
   (kernels run outside the cache lock, see {!Cache}), and any Pool entry
   point a kernel reaches from a worker domain degrades to its sequential
   fallback (the pool's nesting rule), so batch dispatch is safe for
   every pool size.

   Timeouts are cooperative at two granularities: the deadline is
   checked between pipeline stages (after plan lookup, before
   evaluation), and threaded into the long kernels themselves — colour
   refinement checks it once per round, k-WL every 1,024 tuples, hom
   profiles once per pattern — so a request that blows --timeout inside
   a kernel aborts with ERR_DEADLINE instead of running to completion.
   The [max_table_cells] guard rejects queries whose materialisation is
   hopeless upfront, and HOM carries an analogous cost estimate.

   Resource governance (enforced by {!Conn_loop}): accepts beyond
   [max_connections] are refused with ERR_LIMIT_CONNS; per-connection
   input framing (Line_buf) caps a single request line
   ([max_line_bytes]) and the bytes a peer may buffer without ever
   sending a newline ([max_inbuf_bytes]) — an over-limit peer gets one
   structured error line, best-effort, and is dropped. Caches evict by
   byte budgets on top of entry capacities.

   Shutdown: SIGINT/SIGTERM (or the SHUTDOWN command) set a flag; the
   loop stops accepting, drains request lines already buffered, writes
   every pending reply, dumps the metrics file, and exits cleanly. *)

module Graph = Glql_graph.Graph
module Expr = Glql_gel.Expr
module Mat = Glql_tensor.Mat
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Tree = Glql_hom.Tree
module Pool = Glql_util.Pool
module Clock = Glql_util.Clock
module Trace = Glql_util.Trace
module P = Protocol

type config = {
  socket_path : string option;
  tcp_port : int option;
  plan_cache_capacity : int;
  coloring_cache_capacity : int;
  plan_cache_bytes : int;
  coloring_cache_bytes : int;
  feature_cache_bytes : int;
  retrain_stale_s : float;  (* 0 = RETRAIN-on-stale disabled *)
  request_timeout_s : float;
  max_table_cells : int;
  max_connections : int;
  max_line_bytes : int;
  max_inbuf_bytes : int;
  metrics_file : string option;
  snapshot_file : string option;
  verbose : bool;
}

let default_config =
  {
    socket_path = Some "glqld.sock";
    tcp_port = None;
    plan_cache_capacity = 128;
    coloring_cache_capacity = 64;
    plan_cache_bytes = 32 * 1024 * 1024;
    coloring_cache_bytes = 256 * 1024 * 1024;
    feature_cache_bytes = 64 * 1024 * 1024;
    retrain_stale_s = 0.0;
    request_timeout_s = 30.0;
    max_table_cells = 4_000_000;
    max_connections = 256;
    max_line_bytes = 1024 * 1024;
    max_inbuf_bytes = 8 * 1024 * 1024;
    metrics_file = None;
    snapshot_file = None;
    verbose = false;
  }

type t = {
  config : config;
  registry : Registry.t;
  cache : Cache.t;
  models : Models.t;
  metrics : Metrics.t;
  stop_flag : bool Atomic.t;
  (* What the last successful RESTORE (or boot-time snapshot load)
     brought in; surfaced under "restored" in STATS so a warm start is
     observable. *)
  restored : (string * Persist.summary) option Atomic.t;
  retrains : int Atomic.t;  (* models refit by the RETRAIN-on-stale policy *)
}

let create config =
  {
    config;
    registry = Registry.create ();
    cache =
      Cache.create ~plan_bytes:config.plan_cache_bytes
        ~coloring_bytes:config.coloring_cache_bytes
        ~feature_bytes:config.feature_cache_bytes
        ~plan_capacity:config.plan_cache_capacity
        ~coloring_capacity:config.coloring_cache_capacity ();
    models = Models.create ();
    metrics = Metrics.create ();
    stop_flag = Atomic.make false;
    restored = Atomic.make None;
    retrains = Atomic.make 0;
  }

let caches t = t.cache

let stop t = Atomic.set t.stop_flag true

let version = "0.4"

let producer = "glqld " ^ version

(* --- snapshot persistence ------------------------------------------------ *)

let snapshot_path t requested =
  match (requested, t.config.snapshot_file) with
  | Some path, _ -> Ok path
  | None, Some path -> Ok path
  | None, None -> Error "no snapshot path (give one, or start glqld with --snapshot FILE)"

let save_snapshot t path =
  Result.map
    (fun (s : Persist.summary) -> (path, s))
    (Persist.save ~registry:t.registry ~cache:t.cache ~models:(Some t.models)
       ~metrics:(Some t.metrics) ~producer path)

let restore_snapshot t path =
  Result.map
    (fun s ->
      Atomic.set t.restored (Some (path, s));
      (path, s))
    (Persist.restore ~registry:t.registry ~cache:t.cache ~models:(Some t.models)
       ~metrics:(Some t.metrics) path)

(* --- request handlers --------------------------------------------------- *)

let hit_tag = function `Hit -> P.Str "hit" | `Miss -> P.Str "miss"

(* Handlers work in [(json, P.error) result]: every failure carries a
   stable ERR_* code. [fail] builds one; [tag] classifies the plain
   string errors of Registry/Cache/Persist at the call site; [coded]
   wraps the (code, message) errors of Featurize/Models. *)
let fail code fmt = Printf.ksprintf (fun message -> Error (P.error ~code message)) fmt

let tag code = Result.map_error (fun message -> P.error ~code message)

let coded r = Result.map_error (fun (code, message) -> P.error ~code message) r

let check_deadline deadline stage =
  if Clock.expired deadline then
    fail "ERR_DEADLINE" "deadline exceeded before %s (request timeout)" stage
  else Ok ()

let ( let* ) r f = Result.bind r f

let max_listed_cells = 4096

(* The flat [values] of a QUERY: a closed expression's vector, one row
   per vertex for one free variable, and for more the nonzero entries
   only, capped. *)
let values_json n vars m =
  let width = Mat.cols m and data = Mat.data m in
  match vars with
  | [] -> P.Floats data
  | [ _ ] -> P.Float_rows { rows = Mat.rows m; width; data }
  | vars ->
      let arity = List.length vars in
      let entries = ref [] in
      let listed = ref 0 in
      let truncated = ref false in
      for idx = 0 to Mat.rows m - 1 do
        let nonzero = ref false in
        for c = idx * width to ((idx + 1) * width) - 1 do
          if data.(c) <> 0.0 then nonzero := true
        done;
        if !nonzero then begin
          if !listed >= max_listed_cells then truncated := true
          else begin
            incr listed;
            let tuple = Array.make arity 0 in
            let rest = ref idx in
            for pos = arity - 1 downto 0 do
              tuple.(pos) <- !rest mod n;
              rest := !rest / n
            done;
            entries :=
              P.Obj
                [
                  ("t", P.List (Array.to_list (Array.map (fun i -> P.Int i) tuple)));
                  ("v", P.Floats (Array.sub data (idx * width) width));
                ]
              :: !entries
          end
        end
      done;
      P.Obj [ ("nonzero", P.List (List.rev !entries)); ("truncated", P.Bool !truncated) ]

(* Run a QUERY up to its values: the reply fields before [values], and
   the plan's value matrix. EXPLAIN reads the fields and drops the
   matrix unrendered. *)
let run_query t deadline graph_name src =
  let* g = tag "ERR_UNKNOWN_GRAPH" (Registry.find t.registry graph_name) in
  let* plan, hit = tag "ERR_QUERY" (Cache.plan t.cache src) in
  let n = Graph.n_vertices g in
  let fv = Expr.free_vars plan.Cache.expr in
  let p = List.length fv in
  (* Compare in float: n^p easily exceeds max_int, and int_of_float of an
     out-of-range double is unspecified — rounding down to int would let
     exactly the most hopeless queries slip past the guard. *)
  let cells = float_of_int n ** float_of_int p in
  let* () =
    if p > 0 && cells > float_of_int t.config.max_table_cells then
      fail "ERR_LIMIT_CELLS" "query would materialise %.0f cells (limit %d)" cells
        t.config.max_table_cells
    else Ok ()
  in
  let* () = check_deadline deadline "evaluation" in
  let* m = tag "ERR_QUERY" (Trace.with_span "execute" (fun () -> Cache.eval_plan ~deadline plan g)) in
  Ok
    ( [
        ("graph", P.Str graph_name);
        ("n", P.Int n);
        ("fragment", P.Str (Expr.fragment_name (Expr.fragment plan.Cache.expr)));
        ("dim", P.Int (Expr.dim plan.Cache.expr));
        ("free_vars", P.List (List.map (fun v -> P.Int v) fv));
        ("plan", P.Str (if plan.Cache.layered = None then "direct" else "layered"));
        ("plan_cache", hit_tag hit);
      ],
      (n, fv, m) )

let query_result t deadline graph_name src =
  let* fields, (n, fv, m) = run_query t deadline graph_name src in
  let values = Trace.with_span "materialize" (fun () -> values_json n fv m) in
  Ok (P.Obj (fields @ [ ("values", values) ]))

let wl_result t deadline graph_name rounds =
  let* key, g, gen = tag "ERR_UNKNOWN_GRAPH" (Registry.find_binding t.registry graph_name) in
  let* () = check_deadline deadline "colour refinement" in
  let result, colors, summary, hit =
    Cache.wl t.cache ~graph_name:key ~gen ~deadline ~round:rounds g
  in
  let stable_rounds = Cr.rounds result in
  Ok
    (P.Obj
       [
         ("graph", P.Str graph_name);
         ("n", P.Int (Graph.n_vertices g));
         ("rounds_to_stable", P.Int stable_rounds);
         ("rounds_used", P.Int (match rounds with None -> stable_rounds | Some r -> min (max 0 r) stable_rounds));
         ("classes", P.Int summary.Cache.classes);
         ("signature", P.Str summary.Cache.signature);
         ( "colors",
           if Array.length colors <= max_listed_cells then
             P.List (Array.to_list (Array.map (fun c -> P.Int c) colors))
           else P.Null );
         ("coloring_cache", hit_tag hit);
       ])

let kwl_guard t g k =
  let n = Graph.n_vertices g in
  if k < 1 || k > 3 then fail "ERR_BAD_ARG" "KWL: k must be between 1 and 3"
  else if Kwl.tuple_count n k > t.config.max_table_cells then
    fail "ERR_LIMIT_CELLS" "KWL: %d^%d tuples exceed the cell limit" n k
  else Ok ()

let kwl_result t deadline graph_name k =
  let* key, g, gen = tag "ERR_UNKNOWN_GRAPH" (Registry.find_binding t.registry graph_name) in
  let* () = kwl_guard t g k in
  let* () = check_deadline deadline "k-WL refinement" in
  let result, summary, hit = Cache.kwl_summary t.cache ~graph_name:key ~gen ~k ~deadline g in
  Ok
    (P.Obj
       [
         ("graph", P.Str graph_name);
         ("k", P.Int k);
         ("variant", P.Str "folklore");
         ("rounds", P.Int (Kwl.rounds result));
         ("tuple_classes", P.Int summary.Cache.classes);
         ("signature", P.Str summary.Cache.signature);
         ("coloring_cache", hit_tag hit);
       ])

(* The tree patterns of a HOM profile, once the size and cost checks pass. *)
let hom_patterns t g max_size =
  let* () =
    if max_size < 1 || max_size > 9 then
      fail "ERR_BAD_ARG" "HOM: max tree size must be between 1 and 9"
    else Ok ()
  in
  let patterns = Tree.all_free_trees_up_to max_size in
  (* Cost guard, in the same spirit (and against the same knob) as the
     QUERY cell limit: each tree pattern costs one DP sweep of
     O(pattern-size * (n + 2m)) table-cell updates, and large registered
     graphs make the full profile hopeless — reject upfront rather than
     letting the deadline burn 30 s first. Float arithmetic for the same
     overflow reason as the n^p guard above. *)
  let work = float_of_int (Graph.n_vertices g + (2 * Graph.n_edges g)) in
  let npat = List.length patterns in
  let cost = float_of_int npat *. float_of_int max_size *. work in
  if cost > float_of_int t.config.max_table_cells then
    fail "ERR_LIMIT_COST"
      "HOM would traverse ~%.0f DP cells (%d patterns x size %d x %.0f vertex+edge slots; \
       limit %d)"
      cost npat max_size work t.config.max_table_cells
  else Ok patterns

let hom_result t deadline graph_name max_size =
  let* key, g, gen = tag "ERR_UNKNOWN_GRAPH" (Registry.find_binding t.registry graph_name) in
  let* patterns = hom_patterns t g max_size in
  let* () = check_deadline deadline "hom-profile computation" in
  let profile = Cache.hom t.cache ~graph_name:key ~gen ~size:max_size ~deadline patterns g in
  Ok
    (P.Obj
       [
         ("graph", P.Str graph_name);
         ("max_tree_size", P.Int max_size);
         ("patterns", P.Int (List.length patterns));
         ("profile", P.Floats profile);
       ])

(* --- model serving (v6) --------------------------------------------------- *)

let sources_json (m : Models.stored) =
  P.List
    (List.map
       (fun (name, gen) -> P.Obj [ ("graph", P.Str name); ("generation", P.Int gen) ])
       m.Models.sm_sources)

let model_summary_json (m : Models.stored) =
  P.Obj
    [
      ("name", P.Str m.Models.sm_name);
      ("task", P.Str (Models.task_name m.Models.sm_task));
      ("mode", P.Str (P.feat_mode_name m.Models.sm_mode));
      ("recipe", P.Str m.Models.sm_recipe);
      ("target", P.Str m.Models.sm_target);
      ("schema_hash", P.Str (Featurize.schema_hash m.Models.sm_schema));
      ("sources", sources_json m);
      ("rows", P.Int m.Models.sm_rows);
      ("epochs", P.Int m.Models.sm_epochs);
      ("train_metric", P.Float m.Models.sm_train_metric);
      ("test_metric", P.Float m.Models.sm_test_metric);
    ]

let featurize_result t deadline graph_name recipe mode =
  let* key, g, gen = tag "ERR_UNKNOWN_GRAPH" (Registry.find_binding t.registry graph_name) in
  let* cols = tag "ERR_BAD_RECIPE" (Featurize.parse_recipe recipe) in
  let* () = check_deadline deadline "featurization" in
  let* b =
    coded
      (Trace.with_span "featurize" (fun () ->
           Featurize.build ~cache:t.cache ~graph_name:key ~gen ~deadline
             ~max_cells:t.config.max_table_cells mode g cols))
  in
  Ok
    (P.Obj
       [
         ("graph", P.Str graph_name);
         ("mode", P.Str (P.feat_mode_name mode));
         ("rows", P.Int (Array.length b.Featurize.b_rows));
         ("cols", P.Int b.Featurize.b_width);
         ( "columns",
           P.List
             (List.map
                (fun (name, w) -> P.Obj [ ("name", P.Str name); ("width", P.Int w) ])
                b.Featurize.b_cols) );
         ("schema_hash", P.Str (Featurize.schema_hash b.Featurize.b_schema));
         ("digest", P.Str (Featurize.row_digest b.Featurize.b_rows));
         ("cache_hits", P.Int b.Featurize.b_cache_hits);
         ("cache_misses", P.Int b.Featurize.b_cache_misses);
       ])

(* Downsample a loss history for the reply: all of it when short, else an
   even stride that always keeps the final loss. *)
let losses_json losses =
  let n = Array.length losses in
  let cap = 100 in
  let picked =
    if n <= cap then Array.to_list losses
    else
      List.init cap (fun i ->
          if i = cap - 1 then losses.(n - 1) else losses.(i * n / cap))
  in
  P.List (List.map (fun l -> P.Float l) picked)

let train_result t deadline (spec : P.train_spec) =
  let* () = check_deadline deadline "training" in
  let* trained =
    coded
      (Trace.with_span "train" (fun () ->
           Models.train ~registry:t.registry ~cache:t.cache ~models:t.models ~deadline
             ~max_cells:t.config.max_table_cells spec))
  in
  let m = trained.Models.tr_stored in
  let losses = m.Models.sm_losses in
  let final = if Array.length losses = 0 then 0.0 else losses.(Array.length losses - 1) in
  Ok
    (P.Obj
       [
         ("model", P.Str m.Models.sm_name);
         ("task", P.Str (Models.task_name m.Models.sm_task));
         ("mode", P.Str (P.feat_mode_name m.Models.sm_mode));
         ("sources", sources_json m);
         ("rows", P.Int m.Models.sm_rows);
         ("cols", P.Int (List.hd m.Models.sm_sizes));
         ("schema_hash", P.Str (Featurize.schema_hash m.Models.sm_schema));
         ("epochs", P.Int m.Models.sm_epochs);
         ("losses", losses_json losses);
         ("loss_final", P.Float final);
         ("train_metric", P.Float m.Models.sm_train_metric);
         ("test_metric", P.Float m.Models.sm_test_metric);
         ("cache_hits", P.Int trained.Models.tr_hits);
         ("cache_misses", P.Int trained.Models.tr_misses);
       ])

let predict_result t deadline model graph vertices =
  let* () = check_deadline deadline "prediction" in
  let* p =
    coded
      (Trace.with_span "predict" (fun () ->
           Models.predict ~registry:t.registry ~cache:t.cache ~models:t.models ~deadline
             ~max_cells:t.config.max_table_cells ~model ~graph ~vertices ()))
  in
  let m = p.Models.pr_model in
  let rows = p.Models.pr_rows in
  let truncated = Array.length rows > max_listed_cells in
  let listed = if truncated then Array.sub rows 0 max_listed_cells else rows in
  let row_json (i, score) =
    P.Obj
      ([ ("row", P.Int i); ("score", P.Float score) ]
      @
      match m.Models.sm_task with
      | Models.Classify -> [ ("label", P.Int (if score >= 0.0 then 1 else 0)) ]
      | Models.Regress -> [])
  in
  Ok
    (P.Obj
       [
         ("model", P.Str model);
         ("graph", P.Str graph);
         ("task", P.Str (Models.task_name m.Models.sm_task));
         ("mode", P.Str (P.feat_mode_name m.Models.sm_mode));
         ("stale", P.Bool p.Models.pr_stale);
         ("unseen", P.Bool p.Models.pr_unseen);
         ("n", P.Int (Array.length rows));
         ("predictions", P.List (Array.to_list (Array.map row_json listed)));
         ("truncated", P.Bool truncated);
       ])

(* Batched corpus PREDICT: every graph's payload is the exact object a
   single PREDICT would return (so the router can split the list across
   shard replicas and re-concatenate the parts byte-identically). The
   batch is atomic on errors: the first failing graph's classified error
   is the whole reply, matching what a client-side loop would hit. *)
let predict_batch_result t deadline model graphs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | graph :: rest ->
        let* payload = predict_result t deadline model graph [] in
        go (payload :: acc) rest
  in
  let* payloads = go [] graphs in
  let first field =
    match payloads with
    | P.Obj fields :: _ -> Option.value ~default:P.Null (List.assoc_opt field fields)
    | _ -> P.Null
  in
  Ok
    (P.Obj
       [
         ("model", P.Str model);
         ("task", first "task");
         ("mode", first "mode");
         ("graphs", P.Int (List.length payloads));
         ("batch", P.List payloads);
       ])

let models_result t =
  Ok (P.List (List.map model_summary_json (Models.list t.models)))

(* SAVE, RESTORE and STATS "restored" share one summary shape; [second]
   is what the operation adds: bytes written, or when it was saved. *)
let snapshot_json path (s : Persist.summary) second =
  P.Obj
    [
      ("file", P.Str path);
      second;
      ("graphs", P.Int s.Persist.s_graphs);
      ("colorings", P.Int s.Persist.s_colorings);
      ("plans", P.Int s.Persist.s_plans);
      ("models", P.Int s.Persist.s_models);
    ]

let restored_json (path, (s : Persist.summary)) =
  snapshot_json path s ("saved_at", P.Float s.Persist.s_saved_at)

let stats_json t =
  let cache_fields = List.map (fun (k, v) -> (k, P.Int v)) (Cache.stats t.cache) in
  Metrics.to_json t.metrics
    ~extra:
      (cache_fields
      @ [
          ("protocol_version", P.Int P.protocol_version);
          ("graphs_registered", P.Int (Registry.n_graphs t.registry));
          ("models_registered", P.Int (Models.count t.models));
          ("retrains_stale", P.Int (Atomic.get t.retrains));
          ("pool_domains", P.Int (Pool.size ()));
          ("restored", match Atomic.get t.restored with Some r -> restored_json r | None -> P.Null);
        ])

(* --- EXPLAIN stage summary ----------------------------------------------- *)

(* The canonical pipeline stages of a QUERY, in execution order. The
   summary always lists all of them (a warm-cache request reports
   compile as 0 ms / cached), plus a synthetic "other" bucket holding
   the unattributed remainder — so the stage timings sum to total_ms
   exactly. *)
let canonical_stages = [ "parse"; "normalize"; "cache_lookup"; "compile"; "execute"; "materialize" ]

let plan_cache_hit spans =
  List.exists
    (fun (sp : Trace.span) ->
      sp.Trace.name = "cache_lookup" && List.assoc_opt "result" sp.Trace.args = Some "hit")
    spans

let stage_summary ~t0 spans =
  let sum name =
    List.fold_left
      (fun acc (sp : Trace.span) ->
        if sp.Trace.name = name then Int64.add acc sp.Trace.dur_ns else acc)
      0L spans
  in
  (* "compile" runs nested inside "cache_lookup" (misses compute under
     the cache lock), so report the lookup's exclusive time to keep the
     stage buckets disjoint. *)
  let compile_ns = sum "compile" in
  let stage_ns = function
    | "cache_lookup" -> Int64.max 0L (Int64.sub (sum "cache_lookup") compile_ns)
    | name -> sum name
  in
  let hit = plan_cache_hit spans in
  let named = List.map (fun name -> (name, stage_ns name)) canonical_stages in
  let accounted = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L named in
  let other = Int64.max 0L (Int64.sub (Clock.elapsed_ns t0) accounted) in
  let all = named @ [ ("other", other) ] in
  let total_ns = Int64.add accounted other in
  let stage_obj (name, ns) =
    P.Obj
      ([ ("stage", P.Str name); ("ms", P.Float (Clock.ns_to_ms ns)) ]
      @ if name = "compile" then [ ("cached", P.Bool hit) ] else [])
  in
  ( P.Float (Clock.ns_to_ms total_ns),
    P.List (List.map stage_obj all) )

let explain_json ~t0 spans fields =
  let get k = Option.value ~default:P.Null (List.assoc_opt k fields) in
  let total_ms, stages = stage_summary ~t0 spans in
  P.Obj
    [
      ("graph", get "graph");
      ("n", get "n");
      ("fragment", get "fragment");
      ("dim", get "dim");
      ("plan", get "plan");
      ("plan_cache", get "plan_cache");
      ("total_ms", total_ms);
      ("stages", stages);
    ]

let version_fields =
  [
    ("server", P.Str "glqld");
    ("version", P.Str version);
    ("protocol_version", P.Int P.protocol_version);
  ]

let dispatch t deadline ~sink ~t0 req =
  match req with
  | P.Hello -> Ok (P.Obj (version_fields @ [ ("pool_domains", P.Int (Pool.size ())) ]))
  | P.Version -> Ok (P.Obj version_fields)
  | P.Ping -> Ok (P.Str "pong")
  | P.Load (name, spec) ->
      let* g = tag "ERR_BAD_SPEC" (Registry.register t.registry ~name ~spec) in
      Ok
        (P.Obj
           [
             ("name", P.Str name);
             ("spec", P.Str spec);
             ("vertices", P.Int (Graph.n_vertices g));
             ("edges", P.Int (Graph.n_edges g));
           ])
  | P.Graphs ->
      Ok
        (P.List
           (List.map
              (fun (name, nv, ne) ->
                P.Obj [ ("name", P.Str name); ("vertices", P.Int nv); ("edges", P.Int ne) ])
              (Registry.list t.registry)))
  | P.Generators ->
      Ok
        (P.Obj
           [
             ("names", P.List (List.map (fun s -> P.Str s) Registry.generator_names));
             ("patterns", P.List (List.map (fun s -> P.Str s) Registry.generator_patterns));
             ("union", P.Str "join atoms with '+' for disjoint unions");
           ])
  | P.Query (graph, src) -> query_result t deadline graph src
  | P.Explain (graph, src) ->
      (* Run the query pipeline up to its values, then report where its
         time went instead of them. *)
      let* fields, _ = run_query t deadline graph src in
      Ok (explain_json ~t0 (Trace.spans sink) fields)
  | P.Wl (graph, rounds) -> wl_result t deadline graph rounds
  | P.Kwl (graph, k) -> kwl_result t deadline graph k
  | P.Hom (graph, size) -> hom_result t deadline graph size
  | P.Featurize (graph, recipe, mode) -> featurize_result t deadline graph recipe mode
  | P.Train spec -> train_result t deadline spec
  | P.Predict (model, graph, vertices) -> predict_result t deadline model graph vertices
  | P.Predict_batch (model, graphs) -> predict_batch_result t deadline model graphs
  | P.Models -> models_result t
  | P.Mutate (graph, ops) ->
      let ops =
        List.map
          (function
            | P.M_add_edge (u, v) -> Registry.Add_edge (u, v)
            | P.M_del_edge (u, v) -> Registry.Del_edge (u, v)
            | P.M_set_label (v, fs) -> Registry.Set_label (v, fs))
          ops
      in
      let* o = tag "ERR_UNKNOWN_GRAPH" (Registry.mutate t.registry ~name:graph ops) in
      if o.Registry.m_gen <> o.Registry.m_old_gen then
        Cache.note_mutation t.cache ~graph_name:o.Registry.m_key ~old_gen:o.Registry.m_old_gen
          ~gen:o.Registry.m_gen ~touched_adj:o.Registry.m_touched_adj
          ~touched_lab:o.Registry.m_touched_lab;
      Ok
        (P.Obj
           [
             ("graph", P.Str graph);
             ("generation", P.Int o.Registry.m_gen);
             ("vertices", P.Int (Graph.n_vertices o.Registry.m_graph));
             ("edges", P.Int (Graph.n_edges o.Registry.m_graph));
             ( "applied",
               P.Obj
                 [
                   ("add_edges", P.Int o.Registry.m_added);
                   ("del_edges", P.Int o.Registry.m_deleted);
                   ("set_labels", P.Int o.Registry.m_relabeled);
                 ] );
             ( "rejected",
               P.List
                 (List.map
                    (fun (r : Registry.rejected) ->
                      P.Obj
                        [
                          ("index", P.Int r.r_index);
                          ("op", P.Str r.r_op);
                          ("code", P.Str r.r_code);
                          ("message", P.Str r.r_message);
                        ])
                    o.Registry.m_rejected) );
           ])
  | P.Save requested ->
      let* path = tag "ERR_SNAPSHOT" (snapshot_path t requested) in
      let* path, s = tag "ERR_SNAPSHOT" (save_snapshot t path) in
      Ok (snapshot_json path s ("bytes", P.Int s.Persist.s_bytes))
  | P.Restore requested ->
      let* path = tag "ERR_SNAPSHOT" (snapshot_path t requested) in
      let* r = tag "ERR_SNAPSHOT" (restore_snapshot t path) in
      Ok (restored_json r)
  | P.Stats -> Ok (stats_json t)
  | P.Quit -> Ok (P.Str "bye")
  | P.Shutdown ->
      stop t;
      Ok (P.Str "shutting down")

let attach_trace ~t0 sink j =
  let trace = Trace.spans_to_json ~origin_ns:t0 (Trace.spans sink) in
  match j with
  | P.Obj fields -> P.Obj (fields @ [ ("trace", trace) ])
  | other -> P.Obj [ ("value", other); ("trace", trace) ]

let handle_request t parsed =
  let t0 = Clock.now_ns () in
  let deadline = Clock.deadline_after t.config.request_timeout_s in
  (* Every request gets a span sink: it feeds the cumulative per-stage
     histograms in STATS, answers the TRACE option, and gives EXPLAIN
     its stage breakdown. Spans opened on pool workers land here too
     (Pool propagates the trace context). *)
  let sink =
    Trace.make_sink ~keep_spans:true
      ~on_span:(fun sp ->
        Metrics.record_stage t.metrics ~stage:sp.Trace.name ~dur_ns:(Int64.to_int sp.Trace.dur_ns))
      ()
  in
  let reply, command, ok =
    match parsed with
    | Error e -> (P.err_line (P.error ~code:"ERR_PARSE" e), "INVALID", false)
    | Ok { P.req; traced } -> (
        let command = P.command_name req in
        let run () =
          Trace.with_sink sink (fun () ->
              Trace.with_span ~args:[ ("command", command) ] "request" (fun () ->
                  dispatch t deadline ~sink ~t0 req))
        in
        match run () with
        | Ok j ->
            let j = if traced then attach_trace ~t0 sink j else j in
            (P.ok j, command, true)
        | Error e -> (P.err_line e, command, false)
        | exception Clock.Deadline_exceeded ->
            (* A kernel hit its per-round/per-pattern check: the request
               timeout cancelled the evaluation mid-flight. *)
            ( P.err_line
                (P.error ~code:"ERR_DEADLINE"
                   "deadline exceeded during evaluation (request timeout)"),
              command,
              false )
        | exception e ->
            ( P.err_line (P.error ~code:"ERR_INTERNAL" ("internal error: " ^ Printexc.to_string e)),
              command,
              false ))
  in
  Metrics.record t.metrics ~command ~ok ~latency_ns:(Clock.elapsed_ns t0);
  reply

(* One select-loop batch: parse each line once, then fan the requests out
   on the pool. Returns the parsed requests (the loop reads QUIT back from
   them) and the replies, in input order. *)
let run_batch t lines =
  let parsed = Array.map P.parse_request lines in
  (parsed, Pool.parallel_map_array (handle_request t) parsed)

let handle_lines t lines = snd (run_batch t lines)

let handle_line t line = (handle_lines t [| line |]).(0)

let log t fmt =
  Printf.ksprintf (fun s -> if t.config.verbose then Printf.eprintf "glqld: %s\n%!" s) fmt

(* --- RETRAIN-on-stale ----------------------------------------------------- *)

(* Periodic idle-loop policy (--retrain-stale SECS): refit any model
   whose source generations drifted — a MUTATE, a re-LOAD or a RESTORE
   moved a source's binding past the generation it was fitted on — off
   the request path. The refit goes through the normal Models.train with
   the persisted spec (same sources, seed, split, lr, epochs), so the
   refreshed model is exactly what a client-issued re-TRAIN would
   produce; in the sharded deployment every member runs the same
   deterministic refit locally, which keeps primary and replicas
   byte-identical without a mirroring protocol. Nothing unbinds a graph
   name, so every source is still bound. *)
let retrain_stale_pass t =
  List.iter
    (fun (m : Models.stored) ->
      let drifted (name, g0) =
        match Registry.find_entry t.registry name with Ok (_, gen) -> g0 <> gen | Error _ -> false
      in
      if List.exists drifted m.Models.sm_sources then begin
        let deadline = Clock.deadline_after t.config.request_timeout_s in
        match
          Models.train ~registry:t.registry ~cache:t.cache ~models:t.models ~deadline
            ~max_cells:t.config.max_table_cells (Models.spec_of_stored m)
        with
        | Ok _ ->
            Atomic.incr t.retrains;
            log t "retrain-stale: refit model %S" m.Models.sm_name
        | Error (code, msg) ->
            log t "retrain-stale: refit of %S failed: %s (%s)" m.Models.sm_name msg code
        | exception Clock.Deadline_exceeded ->
            log t "retrain-stale: refit of %S hit the request timeout" m.Models.sm_name
        | exception e ->
            log t "retrain-stale: refit of %S raised %s" m.Models.sm_name (Printexc.to_string e)
      end)
    (Models.list t.models)

let serve t =
  (* Signal handlers go in before the boot-time snapshot restore: a
     signal that lands during a long restore must set the stop flag (the
     loop then exits at once and the shutdown path still writes metrics
     and the exit snapshot) rather than kill the process with no
     cleanup. *)
  Conn_loop.with_signals t.stop_flag @@ fun () ->
  (* Warm start: restore the snapshot before opening any socket, so the
     first client already sees the previous life's graphs and caches. A
     bad or missing snapshot is logged and the server comes up cold —
     boot must never fail because of yesterday's file. *)
  (match t.config.snapshot_file with
  | Some path when Sys.file_exists path -> (
      match restore_snapshot t path with
      | Ok (_, s) ->
          log t "restored snapshot %s (%d graphs, %d colorings, %d plans)" path
            s.Persist.s_graphs s.Persist.s_colorings s.Persist.s_plans
      | Error e -> Printf.eprintf "glqld: ignoring snapshot %s: %s\n%!" path e)
  | Some path -> log t "snapshot %s not present yet; starting cold" path
  | None -> ());
  (* RETRAIN-on-stale runs from the loop's idle hook (never from a
     request handler): at most one scan per interval, after the pass's
     replies were flushed, so a refit delays no reply already computed. *)
  let last_retrain_scan = ref (Unix.gettimeofday ()) in
  let on_pass ~accepting =
    let now = Unix.gettimeofday () in
    if accepting && t.config.retrain_stale_s > 0.0
       && now -. !last_retrain_scan >= t.config.retrain_stale_s
    then begin
      last_retrain_scan := now;
      retrain_stale_pass t
    end
  in
  (* One pass's request lines fan out on the pool; replies are queued in
     arrival order. *)
  let on_lines batch =
    let parsed, replies = run_batch t (Array.map snd batch) in
    Array.iteri
      (fun i (c, _) ->
        Conn_loop.send c replies.(i);
        match parsed.(i) with Ok { P.req = P.Quit; _ } -> Conn_loop.quit c | _ -> ())
      batch
  in
  Conn_loop.run ~role:"server" ~log:(log t "%s") ~metrics:t.metrics ~stop:t.stop_flag
    ~socket_path:t.config.socket_path ~tcp_port:t.config.tcp_port
    ~max_connections:t.config.max_connections ~max_line_bytes:t.config.max_line_bytes
    ~max_inbuf_bytes:t.config.max_inbuf_bytes
    {
      Conn_loop.init = ignore;
      on_lines;
      owes = (fun _ -> false);
      links = (fun () -> []);
      on_pass;
      busy = (fun () -> false);
      drain_s = 0.0;
      abandon = ignore;
    };
  (* Persist alongside the metrics dump, so a SIGTERM'd daemon restarted
     with the same --snapshot comes back warm. *)
  (match t.config.snapshot_file with
  | Some path -> (
      match save_snapshot t path with
      | Ok (_, s) -> log t "snapshot written to %s (%d bytes)" path s.Persist.s_bytes
      | Error e -> Printf.eprintf "glqld: snapshot save failed: %s\n%!" e)
  | None -> ());
  let served = Metrics.requests t.metrics in
  (match t.config.metrics_file with
  | Some path ->
      Metrics.write_file t.metrics path
        ~extra:
          (List.map (fun (k, v) -> (k, P.Int v)) (Cache.stats t.cache)
          @ [ ("graphs_registered", P.Int (Registry.n_graphs t.registry)) ]);
      log t "metrics written to %s" path
  | None -> ());
  Printf.eprintf "glqld: served %d requests (%d errors), shutting down cleanly\n%!" served
    (Metrics.errors t.metrics);
  served
