(* gelq — run GEL queries against graphs from the command line.

     dune exec bin/gelq.exe -- '<expression>' [graph]
     dune exec bin/gelq.exe -- --load snap.glqs '<expression>' [graph]
     dune exec bin/gelq.exe -- --save snap.glqs '<expression>' [graph]
     dune exec bin/gelq.exe -- --mutate 'ADD_EDGES 0 2' '<expression>' [graph]
     dune exec bin/gelq.exe -- --featurize 'deg;wl;hom3' [graph]
     dune exec bin/gelq.exe -- --train 'm ON petersen WITH deg;label TARGET <expr>'
     dune exec bin/gelq.exe -- --predict 'm 0 1 2' [graph]
     dune exec bin/gelq.exe -- --list-graphs

   where [graph] is any spec the server registry understands (see
   --list-graphs): fixed names like petersen or rook, sized patterns like
   cycle9 or grid3x4, and '+'-joined disjoint unions like cycle3+cycle3.

   --save/--load exercise the snapshot store: --save writes the graph and
   compiled plan to a snapshot after the query runs; --load seeds them
   from one first (reporting whether the plan cache was hit), so a
   saved-then-loaded query replays without recompilation.

   Examples:

     gelq 'agg_sum{x2}([1] | E(x1,x2))'                        # degrees
     gelq 'agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])' rook
     gelq 'agg_max{x2}(agg_count{x1}([1] | E(x2,x1)) | E(x1,x2))' path7 *)

module Graph = Glql_graph.Graph
module Expr = Glql_gel.Expr
module Parser = Glql_gel.Parser
module Vec = Glql_tensor.Vec
module Registry = Glql_server.Registry
module Cache = Glql_server.Cache
module Persist = Glql_server.Persist
module Models = Glql_server.Models
module Featurize = Glql_server.Featurize
module P = Glql_server.Protocol

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("gelq: " ^ msg);
      exit 1)
    fmt

let list_graphs () =
  print_endline "fixed graphs:";
  List.iter (Printf.printf "  %s\n") Registry.generator_names;
  print_endline "sized patterns:";
  List.iter (Printf.printf "  %s\n") Registry.generator_patterns;
  print_endline "disjoint unions: join any of the above with '+', e.g. cycle3+cycle3"

let print_header query_str g graph_name e =
  Printf.printf "query    : %s\n" query_str;
  Printf.printf "fragment : %s | dimension %d | free variables [%s]\n"
    (Expr.fragment_name (Expr.fragment e))
    (Expr.dim e)
    (String.concat "; " (List.map (Printf.sprintf "x%d") (Expr.free_vars e)));
  Printf.printf "graph    : %s (%d vertices, %d edges)\n" graph_name (Graph.n_vertices g)
    (Graph.n_edges g)

let print_table g table =
  match table.Expr.tvars with
  | [] -> Printf.printf "value = %s\n" (Vec.to_string table.Expr.tdata.(0))
  | [ _ ] ->
      Array.iteri
        (fun v value -> Printf.printf "v%-3d -> %s\n" v (Vec.to_string value))
        table.Expr.tdata
  | vars ->
      let n = Graph.n_vertices g in
      Array.iteri
        (fun idx value ->
          let tuple = ref [] in
          let rest = ref idx in
          for _ = 1 to List.length vars do
            tuple := (!rest mod n) :: !tuple;
            rest := !rest / n
          done;
          (* Print only nonzero entries for readability on big tables. *)
          if Array.exists (fun x -> x <> 0.0) value then
            Printf.printf "(%s) -> %s\n"
              (String.concat ", " (List.map string_of_int !tuple))
              (Vec.to_string value))
        table.Expr.tdata

let run query graph_name =
  let g =
    match Registry.graph_of_spec graph_name with Ok g -> g | Error msg -> die "%s" msg
  in
  let e =
    match Parser.parse query with
    | e -> e
    | exception Parser.Parse_error msg -> die "parse error: %s" msg
    | exception Expr.Type_error msg -> die "type error: %s" msg
  in
  print_header (Expr.to_string e) g graph_name e;
  print_newline ();
  let table =
    match Glql_util.Trace.with_span "execute" (fun () -> Expr.eval g e) with
    | t -> t
    | exception Expr.Type_error msg -> die "type error: %s" msg
  in
  print_table g table

(* --mutate OPS: parse the ops with the server's own MUTATE grammar and
   apply them through Registry.mutate, so the command line exercises the
   exact batch semantics of the wire protocol. *)
let apply_mutation registry graph_name ops_src =
  let ops =
    match Result.bind (P.tokenize ops_src) P.parse_mutations with
    | Ok ms ->
        List.map
          (function
            | P.M_add_edge (u, v) -> Registry.Add_edge (u, v)
            | P.M_del_edge (u, v) -> Registry.Del_edge (u, v)
            | P.M_set_label (v, fs) -> Registry.Set_label (v, fs))
          ms
    | Error msg -> die "--mutate: %s" msg
  in
  match Registry.mutate registry ~name:graph_name ops with
  | Error msg -> die "--mutate: %s" msg
  | Ok o ->
      Printf.printf "mutate   : +%d edges, -%d edges, %d labels (generation %d -> %d)\n"
        o.Registry.m_added o.Registry.m_deleted o.Registry.m_relabeled o.Registry.m_old_gen
        o.Registry.m_gen;
      List.iter
        (fun (r : Registry.rejected) ->
          Printf.printf "mutate   : rejected op %d (%s): %s\n" r.Registry.r_index
            r.Registry.r_op r.Registry.r_message)
        o.Registry.m_rejected;
      o.Registry.m_graph

(* --featurize: 'RECIPE' or 'graph:RECIPE' / 'vertex:RECIPE'. The mode
   prefix is unambiguous: no column spec starts with either word. *)
let split_feat_mode arg =
  match String.index_opt arg ':' with
  | Some i -> (
      match P.feat_mode_of_token (String.sub arg 0 i) with
      | Ok mode -> (mode, String.sub arg (i + 1) (String.length arg - i - 1))
      | Error _ -> (P.Fm_vertex, arg))
  | None -> (P.Fm_vertex, arg)

let run_featurize registry cache graph_name arg =
  let mode, recipe = split_feat_mode arg in
  let key, g, gen =
    match Registry.find_binding registry graph_name with Ok e -> e | Error msg -> die "%s" msg
  in
  let cols =
    match Featurize.parse_recipe recipe with
    | Ok cols -> cols
    | Error msg -> die "ERR_BAD_RECIPE: %s" msg
  in
  match Featurize.build ~cache ~graph_name:key ~gen mode g cols with
  | Error (code, msg) -> die "%s: %s" code msg
  | Ok b ->
      Printf.printf "features : %s (%s mode): %d rows x %d cols\n" graph_name
        (P.feat_mode_name b.Featurize.b_mode)
        (Array.length b.Featurize.b_rows)
        b.Featurize.b_width;
      List.iter
        (fun (name, width) -> Printf.printf "  %-12s width %d\n" name width)
        b.Featurize.b_cols;
      Printf.printf "schema   : %s\n" (Featurize.schema_hash b.Featurize.b_schema);
      Printf.printf "digest   : %s\n" (Featurize.row_digest b.Featurize.b_rows)

(* --train: the argument is the TRAIN line minus the keyword, parsed by
   the server's own grammar ('NAME ON g WITH recipe TARGET expr ...'). *)
let run_train registry cache models arg =
  let spec =
    match P.tokenize arg with
    | Error msg -> die "--train: %s" msg
    | Ok [] -> die "--train: %s" P.train_usage
    | Ok (model :: rest) -> (
        match P.parse_train model rest with
        | Ok spec -> spec
        | Error msg -> die "--train: %s" msg)
  in
  match Models.train ~registry ~cache ~models spec with
  | Error (code, msg) -> die "%s: %s" code msg
  | Ok { Models.tr_stored = m; _ } ->
      Printf.printf "train    : %s (%s, %s mode) on [%s]: %d rows x %d features\n"
        m.Models.sm_name
        (Models.task_name m.Models.sm_task)
        (P.feat_mode_name m.Models.sm_mode)
        (String.concat "; " (List.map fst m.Models.sm_sources))
        m.Models.sm_rows (List.hd m.Models.sm_sizes);
      let losses = m.Models.sm_losses in
      let final = if Array.length losses = 0 then nan else losses.(Array.length losses - 1) in
      Printf.printf "           %d epochs, final loss %.6f, train %.4f, test %.4f\n"
        m.Models.sm_epochs final m.Models.sm_train_metric m.Models.sm_test_metric

(* --predict: 'MODEL [v1 v2 ...]' against the positional graph. *)
let run_predict registry cache models graph_name arg =
  let model, vertices =
    match P.tokenize arg with
    | Error msg -> die "--predict: %s" msg
    | Ok [] -> die "--predict: expected MODEL [vertices]"
    | Ok (model :: rest) ->
        ( model,
          List.map
            (fun tok ->
              match int_of_string_opt tok with
              | Some v -> v
              | None -> die "--predict: bad vertex %S" tok)
            rest )
  in
  match Models.predict ~registry ~cache ~models ~model ~graph:graph_name ~vertices () with
  | Error (code, msg) -> die "%s: %s" code msg
  | Ok p ->
      Printf.printf "predict  : %s on %s (%d rows)%s\n" model graph_name
        (Array.length p.Models.pr_rows)
        (if p.Models.pr_stale then " [stale: source graph mutated since training]" else "");
      let shown = min 20 (Array.length p.Models.pr_rows) in
      for i = 0 to shown - 1 do
        let row, score = p.Models.pr_rows.(i) in
        Printf.printf "  row %-4d -> %.6f\n" row score
      done;
      if shown < Array.length p.Models.pr_rows then
        Printf.printf "  ... %d more rows\n" (Array.length p.Models.pr_rows - shown)

(* The --save/--load/--mutate/--featurize/--train/--predict path: routed
   through the server's registry + plan cache + model registry so
   snapshots round-trip through the exact structures glqld persists
   (and mutations / training through the exact semantics glqld
   applies). [query] is optional: model operations stand alone. *)
let run_cached ~load ~save ~mutate ~featurize ~train ~predict query graph_name =
  let registry = Registry.create () in
  let cache = Cache.create ~plan_capacity:64 ~coloring_capacity:16 () in
  let models = Models.create () in
  (match load with
  | None -> ()
  | Some path -> (
      match Persist.restore ~registry ~cache ~models:(Some models) ~metrics:None path with
      | Ok s ->
          Printf.printf "snapshot : loaded %s (%d graphs, %d plans, %d colorings, %d models)\n"
            path s.Persist.s_graphs s.Persist.s_plans s.Persist.s_colorings s.Persist.s_models
      | Error msg -> die "%s: %s" path msg));
  (match mutate with
  | None -> ()
  | Some ops_src ->
      (match Registry.find registry graph_name with Ok _ -> () | Error msg -> die "%s" msg);
      ignore (apply_mutation registry graph_name ops_src));
  (match query with
  | None -> ()
  | Some query ->
      let g =
        match Registry.find registry graph_name with Ok g -> g | Error msg -> die "%s" msg
      in
      let plan, hit =
        match Cache.plan cache query with Ok r -> r | Error msg -> die "%s" msg
      in
      print_header (Expr.to_string plan.Cache.expr) g graph_name plan.Cache.expr;
      Printf.printf "plan     : %s (plan cache %s)\n"
        (match plan.Cache.layered with Some _ -> "layered" | None -> "direct")
        (match hit with `Hit -> "hit" | `Miss -> "miss");
      print_newline ();
      let table =
        match Glql_util.Trace.with_span "execute" (fun () -> Expr.eval g plan.Cache.expr) with
        | t -> t
        | exception Expr.Type_error msg -> die "type error: %s" msg
      in
      print_table g table);
  Option.iter (run_featurize registry cache graph_name) featurize;
  Option.iter (run_train registry cache models) train;
  Option.iter (run_predict registry cache models graph_name) predict;
  match save with
  | None -> ()
  | Some path -> (
      match
        Persist.save ~registry ~cache ~models:(Some models) ~metrics:None ~producer:"gelq" path
      with
      | Ok s ->
          Printf.printf "\nsnapshot : wrote %s (%d bytes, %d graphs, %d plans, %d models)\n" path
            s.Persist.s_bytes s.Persist.s_graphs s.Persist.s_plans s.Persist.s_models
      | Error msg -> die "%s: %s" path msg)

let () =
  (* GLQL_TRACE=<file> dumps parse/compile/execute spans in Chrome trace
     format, same as glqld. *)
  Glql_util.Trace.setup_from_env ();
  let save = ref None in
  let load = ref None in
  let mutate = ref None in
  let featurize = ref None in
  let train = ref None in
  let predict = ref None in
  let rec strip = function
    | "--save" :: path :: rest ->
        save := Some path;
        strip rest
    | "--load" :: path :: rest ->
        load := Some path;
        strip rest
    | "--mutate" :: ops :: rest ->
        mutate := Some ops;
        strip rest
    | "--featurize" :: recipe :: rest ->
        featurize := Some recipe;
        strip rest
    | "--train" :: spec :: rest ->
        train := Some spec;
        strip rest
    | "--predict" :: spec :: rest ->
        predict := Some spec;
        strip rest
    | (("--save" | "--load" | "--mutate" | "--featurize" | "--train" | "--predict") as flag) :: []
      ->
        die "%s expects an argument" flag
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let model_ops () = !featurize <> None || !train <> None || !predict <> None in
  match strip (List.tl (Array.to_list Sys.argv)) with
  | "--list-graphs" :: _ -> list_graphs ()
  | positional when model_ops () ->
      (* Model operations stand alone: the (optional) positional is the
         graph, not a query. *)
      let graph_name = match positional with g :: _ -> g | [] -> "petersen" in
      run_cached ~load:!load ~save:!save ~mutate:!mutate ~featurize:!featurize ~train:!train
        ~predict:!predict None graph_name
  | query :: rest ->
      let graph_name = match rest with g :: _ -> g | [] -> "petersen" in
      if !save = None && !load = None && !mutate = None then run query graph_name
      else
        run_cached ~load:!load ~save:!save ~mutate:!mutate ~featurize:None ~train:None
          ~predict:None (Some query) graph_name
  | [] ->
      prerr_endline
        "usage: gelq [--save FILE] [--load FILE] [--mutate 'OPS'] '<expression>' [graph]";
      prerr_endline "  e.g. gelq 'agg_sum{x2}([1] | E(x1,x2))' petersen";
      prerr_endline "  gelq --list-graphs lists the known graph specs";
      prerr_endline "  --save/--load write/read a glqld-compatible snapshot";
      prerr_endline "  --mutate applies a MUTATE batch (e.g. 'ADD_EDGES 0 2 DEL_EDGES 0 1') first";
      prerr_endline "  --featurize '[graph:|vertex:]RECIPE' prints the feature matrix shape/digest";
      prerr_endline "  --train 'NAME ON g WITH recipe TARGET expr' fits and registers a model";
      prerr_endline "  --predict 'NAME [v...]' scores a graph with a trained model";
      exit 1
