(* Save/restore glue between the live server structures and the pure
   Snapshot codecs. Save only exports colourings whose generation still
   matches the registry binding (anything else is stale by definition);
   restore binds each graph at its saved generation, so a fresh process
   uses every colouring and model source of the file as written. *)

module Snapshot = Glql_store.Snapshot
module Trace = Glql_util.Trace

type summary = {
  s_graphs : int;
  s_colorings : int;
  s_plans : int;
  s_models : int;
  s_bytes : int;
  s_saved_at : float;
}

(* --- model conversion (Models.stored <-> Snapshot.model_entry) ---------- *)

let model_to_snapshot (m : Models.stored) =
  {
    Snapshot.m_name = m.Models.sm_name;
    m_task = (match m.Models.sm_task with Models.Classify -> 0 | Models.Regress -> 1);
    m_mode = (match m.Models.sm_mode with Protocol.Fm_vertex -> 0 | Protocol.Fm_graph -> 1);
    m_recipe = m.Models.sm_recipe;
    m_target = m.Models.sm_target;
    m_schema = m.Models.sm_schema;
    m_sources = m.Models.sm_sources;
    m_sizes = m.Models.sm_sizes;
    m_seed = m.Models.sm_seed;
    m_params = m.Models.sm_params;
    m_rows = m.Models.sm_rows;
    m_epochs = m.Models.sm_epochs;
    m_lr = m.Models.sm_lr;
    m_split = m.Models.sm_split;
    m_losses = m.Models.sm_losses;
    m_train_metric = m.Models.sm_train_metric;
    m_test_metric = m.Models.sm_test_metric;
  }

let model_of_snapshot ~follow (m : Snapshot.model_entry) =
  {
    Models.sm_name = m.Snapshot.m_name;
    sm_task = (if m.Snapshot.m_task = 0 then Models.Classify else Models.Regress);
    sm_mode = (if m.Snapshot.m_mode = 0 then Protocol.Fm_vertex else Protocol.Fm_graph);
    sm_recipe = m.Snapshot.m_recipe;
    sm_target = m.Snapshot.m_target;
    sm_schema = m.Snapshot.m_schema;
    sm_sources = List.map follow m.Snapshot.m_sources;
    sm_sizes = m.Snapshot.m_sizes;
    sm_seed = m.Snapshot.m_seed;
    sm_params = m.Snapshot.m_params;
    sm_rows = m.Snapshot.m_rows;
    sm_epochs = m.Snapshot.m_epochs;
    sm_lr = m.Snapshot.m_lr;
    sm_split = m.Snapshot.m_split;
    sm_losses = m.Snapshot.m_losses;
    sm_train_metric = m.Snapshot.m_train_metric;
    sm_test_metric = m.Snapshot.m_test_metric;
  }

let counters_to_snapshot (c : Metrics.counters) =
  {
    Snapshot.m_requests = c.Metrics.c_requests;
    m_errors = c.Metrics.c_errors;
    m_bytes_in = c.Metrics.c_bytes_in;
    m_bytes_out = c.Metrics.c_bytes_out;
    m_by_command = c.Metrics.c_by_command;
  }

let counters_of_snapshot (m : Snapshot.metrics_counters) =
  {
    Metrics.c_requests = m.Snapshot.m_requests;
    c_errors = m.Snapshot.m_errors;
    c_bytes_in = m.Snapshot.m_bytes_in;
    c_bytes_out = m.Snapshot.m_bytes_out;
    c_by_command = m.Snapshot.m_by_command;
  }

let save ~registry ~cache ~models ~metrics ~producer path =
  Trace.with_span ~args:[ ("path", path) ] "store.save" @@ fun () ->
  let entries = Registry.entries registry in
  let gen_of = List.map (fun (name, _, gen, _) -> (name, gen)) entries in
  let current name gen = List.assoc_opt name gen_of = Some gen in
  let graphs =
    List.map
      (fun (g_name, g_spec, g_gen, g_graph) -> { Snapshot.g_name; g_spec; g_gen; g_graph })
      entries
  in
  let colorings =
    Cache.export_colorings cache
    |> List.filter_map (function
         | Cache.E_cr { graph_name; gen; result } ->
             if current graph_name gen then
               Some { Snapshot.c_name = graph_name; c_data = Snapshot.Cr_data result }
             else None
         | Cache.E_kwl { graph_name; gen; k; result } ->
             if current graph_name gen then
               Some { Snapshot.c_name = graph_name; c_data = Snapshot.Kwl_data (k, result) }
             else None)
  in
  let plans = Cache.export_plans cache in
  let model_entries =
    match models with None -> [] | Some ms -> List.map model_to_snapshot (Models.list ms)
  in
  let saved_at = Unix.gettimeofday () in
  let snap =
    {
      Snapshot.producer;
      saved_at;
      graphs;
      colorings;
      plans;
      models = model_entries;
      metrics = Option.map (fun m -> counters_to_snapshot (Metrics.export_counters m)) metrics;
    }
  in
  match Snapshot.write_file path snap with
  | Error _ as e -> e
  | Ok bytes ->
      Ok
        {
          s_graphs = List.length graphs;
          s_colorings = List.length colorings;
          s_plans = List.length plans;
          s_models = List.length model_entries;
          s_bytes = bytes;
          s_saved_at = saved_at;
        }

let restore ~registry ~cache ~models ~metrics path =
  Trace.with_span ~args:[ ("path", path) ] "store.restore" @@ fun () ->
  match Snapshot.read_file path with
  | Error _ as e -> e
  | Ok snap ->
      (* The decode above validated everything; only now touch live state.
         Each graph binds at its saved generation unless this process
         already bound the name at that generation or later; then it
         binds one past the live one, and the file's entries at the saved
         generation follow the binding. Older model sources stay older,
         so a model stale at save time stays stale. *)
      let gens =
        List.map
          (fun e ->
            let saved = e.Snapshot.g_gen in
            ( e.Snapshot.g_name,
              ( saved,
                Registry.register_prebuilt registry ~name:e.Snapshot.g_name
                  ~spec:e.Snapshot.g_spec ~gen:saved e.Snapshot.g_graph ) ))
          snap.Snapshot.graphs
      in
      (* A model source names a graph of the file, or, in files written
         before sources were recorded by binding key, a spelling of one:
         it resolves as in Registry.find_binding. A source the file does not
         bind keeps its saved generation. *)
      let follow (name, gen) =
        let key = if List.mem_assoc name gens then name else Registry.canonical_spec name in
        match List.assoc_opt key gens with
        | Some (saved, bound) -> (key, if gen = saved then bound else gen)
        | None -> (name, gen)
      in
      (* Exports are MRU-first; seed in reverse so LRU recency carries
         over into the new process. Save wrote colourings of the saved
         generations only, and decode rejects one naming a graph the file
         lacks. *)
      List.iter
        (fun { Snapshot.c_name = graph_name; c_data } ->
          let gen = snd (List.assoc graph_name gens) in
          match c_data with
          | Snapshot.Cr_data r -> Cache.seed_cr cache ~graph_name ~gen r
          | Snapshot.Kwl_data (k, r) -> Cache.seed_kwl cache ~graph_name ~gen ~k r)
        (List.rev snap.Snapshot.colorings);
      let plans_seeded = ref 0 in
      List.iter
        (fun (key, src) ->
          (* Recompile from source; a plan whose recomputed canonical key
             no longer matches the recorded one was produced by a
             different compiler and is silently skipped. *)
          match Cache.seed_plan cache ~src with
          | Ok key' when key' = key -> incr plans_seeded
          | Ok _ | Error _ -> ())
        (List.rev snap.Snapshot.plans);
      Option.iter
        (fun ms -> Models.import ms (List.map (model_of_snapshot ~follow) snap.Snapshot.models))
        models;
      (match (metrics, snap.Snapshot.metrics) with
      | Some m, Some c -> Metrics.absorb m (counters_of_snapshot c)
      | _ -> ());
      let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      Ok
        {
          s_graphs = List.length snap.Snapshot.graphs;
          s_colorings = List.length snap.Snapshot.colorings;
          s_plans = !plans_seeded;
          s_models = (if Option.is_none models then 0 else List.length snap.Snapshot.models);
          s_bytes = bytes;
          s_saved_at = snap.Snapshot.saved_at;
        }
