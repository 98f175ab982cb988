(* Named-model registry and the TRAIN / PREDICT engine (protocol v6).

   A trained model is a small MLP head over a feature matrix declared by
   a recipe (see Featurize): vertex-mode recipes train a binary
   classifier over the vertices of one graph, graph-mode recipes train a
   scalar regressor over a corpus of graphs (one feature row each).
   Models are plain data — recipe, target, schema, source generations,
   seed and the trained weight matrices — so they snapshot byte-exactly
   and a rebooted daemon answers PREDICT warm.

   Staleness: a model remembers the registry generation of every source
   graph at fit time. PREDICT on a source graph whose generation has
   moved on (MUTATE, re-LOAD) still answers, but carries stale:true —
   an explicit signal instead of a silently wrong answer. *)

module P = Protocol
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param
module Activation = Glql_nn.Activation
module Mat = Glql_tensor.Mat
module Rng = Glql_util.Rng
module Clock = Glql_util.Clock
module Erm = Glql_learning.Erm

type task = Classify | Regress

let task_name = function Classify -> "classify" | Regress -> "regress"

type stored = {
  sm_name : string;
  sm_task : task;
  sm_mode : P.feat_mode;
  sm_recipe : string;
  sm_target : string;
  sm_schema : string;
  sm_sources : (string * int) list;  (* binding key, generation at fit time *)
  sm_sizes : int list;
  sm_seed : int;
  sm_params : (int * int * float array) list;  (* rows, cols, row-major data *)
  sm_rows : int;  (* training rows *)
  sm_epochs : int;
  sm_lr : float;
  sm_split : float;
  sm_losses : float array;
  sm_train_metric : float;
  sm_test_metric : float;
}

type t = { lock : Mutex.t; table : (string, stored) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t stored = locked t (fun () -> Hashtbl.replace t.table stored.sm_name stored)
let find t name = locked t (fun () -> Hashtbl.find_opt t.table name)
let count t = locked t (fun () -> Hashtbl.length t.table)

let list t =
  locked t (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) t.table [])
  |> List.sort (fun a b -> compare a.sm_name b.sm_name)

let import t models =
  locked t (fun () -> List.iter (fun m -> Hashtbl.replace t.table m.sm_name m) models)

(* --- the MLP head ------------------------------------------------------- *)

(* The head architecture is fixed (Tanh hidden layers, identity output),
   so (sizes, seed, params) fully determines the network. *)
let make_head ~seed ~sizes = Mlp.create (Rng.create seed) ~sizes ~act:Activation.Tanh ~out_act:Activation.Identity

let params_of_head head =
  List.map
    (fun p ->
      let m = p.Param.data in
      (Mat.rows m, Mat.cols m, Array.copy (Mat.data m)))
    (Mlp.params head)

let head_of stored =
  let head = make_head ~seed:stored.sm_seed ~sizes:stored.sm_sizes in
  let params = Mlp.params head in
  if List.length params <> List.length stored.sm_params then
    Error "model params do not match the stored architecture"
  else begin
    let ok = ref true in
    List.iter2
      (fun p (rows, cols, data) ->
        let m = p.Param.data in
        if Mat.rows m <> rows || Mat.cols m <> cols || Array.length data <> rows * cols then
          ok := false
        else Array.blit data 0 (Mat.data m) 0 (rows * cols))
      params stored.sm_params;
    if !ok then Ok head else Error "model params do not match the stored architecture"
  end

(* --- TRAIN -------------------------------------------------------------- *)

let default_epochs = 100
let max_epochs = 10_000
let default_lr = 0.05
let default_seed = 1
let default_split = 0.8

let fail code fmt = Printf.ksprintf (fun m -> Error (code, m)) fmt
let ( let* ) r f = Result.bind r f

(* Per-row training targets from the TARGET expression, evaluated through
   the plan cache like any query. Vertex mode wants one value per vertex
   (one free variable), graph mode one value per graph (closed). *)
let target_values ~cache ~deadline mode g src =
  match Cache.plan cache src with
  | Error e -> fail "ERR_QUERY" "TARGET: %s" e
  | Ok (plan, _) -> (
      let expr = plan.Cache.expr in
      (* A TARGET must be scalar: a head is fit against one value per
         row. Truncating a wider expression to component 0 would fit
         against a silently wrong target, so reject it by dimension. *)
      let* () =
        let d = Glql_gel.Expr.dim expr in
        if d <> 1 then
          fail "ERR_QUERY" "TARGET: expected a scalar expression, got dimension %d" d
        else Ok ()
      in
      match (mode, Glql_gel.Expr.free_vars expr) with
      | P.Fm_vertex, [ _ ] | P.Fm_graph, [] -> (
          (* One value per vertex, or the one value of a closed expression. *)
          match Cache.eval_plan ~deadline plan g with
          | Error e -> fail "ERR_QUERY" "TARGET: %s" e
          | Ok m -> Ok (Array.init (Mat.rows m) (fun v -> Mat.get m v 0)))
      | _, vars ->
          fail "ERR_QUERY" "TARGET: expected %s, got %d free variables"
            (match mode with P.Fm_vertex -> "one free variable" | P.Fm_graph -> "a closed expression")
            (List.length vars))

(* The exact TRAIN spec a stored model was fit from — every fit
   hyperparameter is persisted, so a RETRAIN-on-stale refit through the
   normal train path is deterministic: same seed, same split, same head. *)
let spec_of_stored (m : stored) : P.train_spec =
  {
    P.t_model = m.sm_name;
    t_graphs = List.map fst m.sm_sources;
    t_recipe = m.sm_recipe;
    t_target = m.sm_target;
    t_mode = Some m.sm_mode;
    t_epochs = Some m.sm_epochs;
    t_lr = Some m.sm_lr;
    t_seed = Some m.sm_seed;
    t_split = Some m.sm_split;
  }

type trained = { tr_stored : stored; tr_hits : int; tr_misses : int }

let train ~registry ~cache ~models ?(deadline = None) ?(max_cells = 0) (spec : P.train_spec) =
  let mode =
    match spec.t_mode with
    | Some m -> m
    | None -> if List.length spec.t_graphs = 1 then P.Fm_vertex else P.Fm_graph
  in
  let epochs = Option.value spec.t_epochs ~default:default_epochs in
  let lr = Option.value spec.t_lr ~default:default_lr in
  let seed = Option.value spec.t_seed ~default:default_seed in
  let split = Option.value spec.t_split ~default:default_split in
  let* () =
    if epochs > max_epochs then fail "ERR_BAD_ARG" "EPOCHS: capped at %d" max_epochs
    else if mode = P.Fm_vertex && List.length spec.t_graphs <> 1 then
      fail "ERR_BAD_ARG" "vertex-mode TRAIN takes exactly one source graph"
    else Ok ()
  in
  let* cols = Result.map_error (fun m -> ("ERR_BAD_RECIPE", m)) (Featurize.parse_recipe spec.t_recipe) in
  (* Featurize every source graph and collect its per-row targets. *)
  let rec featurize_all acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest ->
        Clock.check deadline;
        let* key, g, gen =
          Result.map_error (fun m -> ("ERR_UNKNOWN_GRAPH", m)) (Registry.find_binding registry name)
        in
        let* built = Featurize.build ~cache ~graph_name:key ~gen ~deadline ~max_cells mode g cols in
        let* targets = target_values ~cache ~deadline mode g spec.t_target in
        if Array.length targets <> Array.length built.Featurize.b_rows then
          fail "ERR_INTERNAL" "TARGET produced %d values for %d rows" (Array.length targets)
            (Array.length built.Featurize.b_rows)
        else featurize_all ((key, gen, built, targets) :: acc) rest
  in
  let* parts = featurize_all [] spec.t_graphs in
  let schema = match parts with (_, _, b, _) :: _ -> b.Featurize.b_schema | [] -> "" in
  let* () =
    match List.find_opt (fun (_, _, b, _) -> b.Featurize.b_schema <> schema) parts with
    | Some (name, _, b, _) ->
        fail "ERR_SCHEMA_MISMATCH" "graph %s produces schema %S, first graph %S" name
          b.Featurize.b_schema schema
    | None -> Ok ()
  in
  let features = Array.concat (List.map (fun (_, _, b, _) -> b.Featurize.b_rows) parts) in
  let raw_targets = Array.concat (List.map (fun (_, _, _, t) -> t) parts) in
  let n = Array.length features in
  let* () = if n = 0 then fail "ERR_BAD_ARG" "no training rows" else Ok () in
  let width = (List.hd parts |> fun (_, _, b, _) -> b.Featurize.b_width) in
  let* () = if width = 0 then fail "ERR_BAD_RECIPE" "recipe produces zero columns" else Ok () in
  let task = match mode with P.Fm_vertex -> Classify | P.Fm_graph -> Regress in
  let targets =
    match task with
    | Classify -> Array.map (fun v -> if v > 0.0 then 1.0 else 0.0) raw_targets
    | Regress -> raw_targets
  in
  let train_idx, _test_idx = Erm.split (Rng.create seed) ~n ~train_fraction:split in
  let mask = Array.make n false in
  List.iter (fun i -> mask.(i) <- true) train_idx;
  (* A split that leaves the train side empty (tiny n) trains on all rows. *)
  if not (Array.exists Fun.id mask) then Array.fill mask 0 n true;
  Clock.check deadline;
  let sizes = [ width; 1 ] in
  let head = make_head ~seed ~sizes in
  let history =
    match task with
    | Classify -> Erm.train_feature_classifier ~epochs ~lr ~deadline head ~features ~targets ~mask
    | Regress -> Erm.train_feature_regressor ~epochs ~lr ~deadline head ~features ~targets ~mask
  in
  let stored =
    {
      sm_name = spec.t_model;
      sm_task = task;
      sm_mode = mode;
      sm_recipe = spec.t_recipe;
      sm_target = spec.t_target;
      sm_schema = schema;
      sm_sources = List.map (fun (name, gen, _, _) -> (name, gen)) parts;
      sm_sizes = sizes;
      sm_seed = seed;
      sm_params = params_of_head head;
      sm_rows = n;
      sm_epochs = epochs;
      sm_lr = lr;
      sm_split = split;
      sm_losses = Array.of_list history.Erm.losses;
      sm_train_metric = history.Erm.train_metric;
      sm_test_metric = history.Erm.test_metric;
    }
  in
  add models stored;
  let hits = List.fold_left (fun acc (_, _, b, _) -> acc + b.Featurize.b_cache_hits) 0 parts in
  let misses = List.fold_left (fun acc (_, _, b, _) -> acc + b.Featurize.b_cache_misses) 0 parts in
  Ok { tr_stored = stored; tr_hits = hits; tr_misses = misses }

(* --- PREDICT ------------------------------------------------------------ *)

type prediction = {
  pr_model : stored;
  pr_stale : bool;
  pr_unseen : bool;  (* graph was not a training source of the model *)
  pr_rows : (int * float) array;  (* row index (vertex or 0), score *)
  pr_hits : int;
  pr_misses : int;
}

let predict ~registry ~cache ~models ?(deadline = None) ?(max_cells = 0) ~model ~graph ~vertices ()
    =
  let* stored =
    match find models model with
    | Some m -> Ok m
    | None -> fail "ERR_UNKNOWN_MODEL" "unknown model %S (TRAIN it first, or see MODELS)" model
  in
  let* key, g, gen =
    Result.map_error (fun m -> ("ERR_UNKNOWN_GRAPH", m)) (Registry.find_binding registry graph)
  in
  let* cols =
    Result.map_error (fun m -> ("ERR_BAD_RECIPE", m)) (Featurize.parse_recipe stored.sm_recipe)
  in
  let* built =
    Featurize.build ~cache ~graph_name:key ~gen ~deadline ~max_cells stored.sm_mode g cols
  in
  let* () =
    if built.Featurize.b_schema <> stored.sm_schema then
      fail "ERR_SCHEMA_MISMATCH"
        "graph %s featurizes to schema %S but model %S was trained on %S" graph
        built.Featurize.b_schema model stored.sm_schema
    else Ok ()
  in
  let* head = Result.map_error (fun m -> ("ERR_INTERNAL", m)) (head_of stored) in
  let n = Array.length built.Featurize.b_rows in
  let* indices =
    match vertices with
    | [] -> Ok (Array.init n Fun.id)
    | vs ->
        let rec check = function
          | [] -> Ok (Array.of_list vs)
          | v :: rest ->
              if v < 0 || v >= n then fail "ERR_BAD_ARG" "row %d out of range 0..%d" v (n - 1)
              else check rest
        in
        check vs
  in
  (* Score all requested rows in one pass instead of a per-row
     [Mlp.apply_vec] loop. Single-layer heads (every head [train] fits
     today) go through [Mlp.scores], which skips the batch-matrix copy
     entirely; deeper heads pay one batched [forward]. Both are
     bit-identical to the per-row loop: each output row of a matrix
     product is an independent dot-product with the same summation
     order as the single-row case. *)
  let rows =
    if Array.length indices = 0 then [||]
    else
      let selected = Array.map (fun i -> built.Featurize.b_rows.(i)) indices in
      match Mlp.scores head selected with
      | Some s -> Array.mapi (fun k i -> (i, s.(k))) indices
      | None ->
          let out = Mlp.forward head (Mat.of_rows (Array.to_list selected)) in
          Array.mapi (fun k i -> (i, Mat.get out k 0)) indices
  in
  (* A graph the model never saw is not "fresh": it is flagged unseen so
     a corpus PREDICT can tell drifted sources from foreign graphs. The
     stale bit still means exactly "a training source whose generation
     moved on". *)
  let stale, unseen =
    match List.assoc_opt key stored.sm_sources with
    | Some g0 -> (g0 <> gen, false)
    | None -> (false, true)
  in
  Ok
    {
      pr_model = stored;
      pr_stale = stale;
      pr_unseen = unseen;
      pr_rows = rows;
      pr_hits = built.Featurize.b_cache_hits;
      pr_misses = built.Featurize.b_cache_misses;
    }
