(* Snapshot codecs over the section container. Decoding builds the whole
   value up front — through the validating constructors Graph.of_csr,
   Cr.of_parts and Kwl.of_parts — and only then returns, so a malformed
   file yields [Error] and zero observable effect. *)

module Bin_io = Glql_util.Bin_io
module Trace = Glql_util.Trace
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module W = Bin_io.Writer
module R = Bin_io.Reader

type coloring_data = Cr_data of Cr.result | Kwl_data of int * Kwl.result

type graph_entry = { g_name : string; g_spec : string; g_gen : int; g_graph : Graph.t }

type coloring_entry = { c_name : string; c_data : coloring_data }

type metrics_counters = {
  m_requests : int;
  m_errors : int;
  m_bytes_in : int;
  m_bytes_out : int;
  m_by_command : (string * int) list;
}

(* A trained model (v6): pure data — architecture, seed, weight
   matrices, recipe/target/schema strings and source-graph generations —
   so the store does not depend on the nn layer. *)
type model_entry = {
  m_name : string;
  m_task : int;  (* 0 = classifier, 1 = regressor *)
  m_mode : int;  (* 0 = vertex rows, 1 = graph rows *)
  m_recipe : string;
  m_target : string;
  m_schema : string;
  m_sources : (string * int) list;
  m_sizes : int list;
  m_seed : int;
  m_params : (int * int * float array) list;
  m_rows : int;
  m_epochs : int;
  m_lr : float;
  m_split : float;
  m_losses : float array;
  m_train_metric : float;
  m_test_metric : float;
}

type t = {
  producer : string;
  saved_at : float;
  graphs : graph_entry list;
  colorings : coloring_entry list;
  plans : (string * string) list;
  models : model_entry list;
  metrics : metrics_counters option;
}

(* Section tags. *)
let s_meta = "META"

let s_graphs = "GRPH"

let s_colorings = "COLR"

let s_plans = "PLAN"

(* Models were first snapshotted as "MODL"; "MOD2" extends the record
   with the fit hyperparameters (lr, split) a RETRAIN-on-stale refit
   needs. Writers emit MOD2 only; readers take MOD2 when present and
   fall back to the legacy MODL codec with the historical defaults. *)
let s_models = "MODL"

let s_models2 = "MOD2"

(* The TRAIN defaults in force when MODL was current (see Models). *)
let legacy_lr = 0.05

let legacy_split = 0.8

let s_metrics = "MTRC"

(* Adjacency data is bounded by the registry's spec limits (u32-sized);
   writing it 4 bytes per entry halves snapshots versus i64. *)
let w_u32_array w a =
  W.u32 w (Array.length a);
  Array.iter (fun v -> W.u32 w v) a

let r_u32_array r =
  let n = R.u32 r in
  if R.remaining r < n * 4 then Bin_io.corrupt "truncated u32 array";
  Array.init n (fun _ -> R.u32 r)

(* --- graph codec --------------------------------------------------------- *)

let w_graph w g =
  let n = Graph.n_vertices g in
  let offsets, adjacency = Graph.to_csr g in
  W.u32 w n;
  W.u32 w (Graph.label_dim g);
  w_u32_array w offsets;
  w_u32_array w adjacency;
  for v = 0 to n - 1 do
    Array.iter (fun x -> W.f64 w x) (Graph.label g v)
  done

let r_graph r =
  let n = R.u32 r in
  let label_dim = R.u32 r in
  let offsets = r_u32_array r in
  let adjacency = r_u32_array r in
  if R.remaining r < n * label_dim * 8 then Bin_io.corrupt "truncated label block";
  let labels = Array.init n (fun _ -> Array.init label_dim (fun _ -> R.f64 r)) in
  Graph.of_csr ~n ~offsets ~adjacency ~labels

(* --- colouring codec ----------------------------------------------------- *)

(* Colour ids are interner indices; i64 keeps them exact whatever the
   interner produced. Cache entries are always solo runs, so the codec
   fixes one graph per entry and stores the full history (CR) or the
   stable colouring plus round count (k-WL). *)
let w_coloring w entry =
  W.str w entry.c_name;
  match entry.c_data with
  | Cr_data result ->
      W.u8 w 0;
      let history = List.map (function [ c ] -> c | _ -> invalid_arg "joint CR in cache") (Cr.history result) in
      W.u32 w (List.length history);
      List.iter (fun colors -> W.int_array w colors) history
  | Kwl_data (k, result) ->
      W.u8 w 1;
      W.u8 w k;
      W.u32 w (Kwl.rounds result);
      (match Kwl.stable_colors result with
      | [ colors ] -> W.int_array w colors
      | _ -> invalid_arg "joint k-WL in cache")

let r_coloring ~graph_of_name r =
  let name = R.str r in
  let g =
    match graph_of_name name with
    | Some g -> g
    | None -> Bin_io.corrupt "colouring references unknown graph %S" name
  in
  let data =
    match R.u8 r with
    | 0 ->
        let rounds = R.u32 r in
        let history = List.init rounds (fun _ -> [ R.int_array r ]) in
        Cr_data (Cr.of_parts ~graphs:[ g ] ~history)
    | 1 ->
        let k = R.u8 r in
        let rounds = R.u32 r in
        let stable = R.int_array r in
        Kwl_data (k, Kwl.of_parts ~k ~graphs:[ g ] ~stable:[ stable ] ~rounds)
    | kind -> Bin_io.corrupt "unknown colouring kind %d" kind
  in
  { c_name = name; c_data = data }

(* --- model codec ---------------------------------------------------------- *)

let w_model w m =
  W.str w m.m_name;
  W.u8 w m.m_task;
  W.u8 w m.m_mode;
  W.str w m.m_recipe;
  W.str w m.m_target;
  W.str w m.m_schema;
  W.u32 w (List.length m.m_sources);
  List.iter
    (fun (name, gen) ->
      W.str w name;
      W.i64 w gen)
    m.m_sources;
  W.int_array w (Array.of_list m.m_sizes);
  W.i64 w m.m_seed;
  W.u32 w (List.length m.m_params);
  List.iter
    (fun (rows, cols, data) ->
      W.u32 w rows;
      W.u32 w cols;
      if Array.length data <> rows * cols then invalid_arg "model param size mismatch";
      W.float_array w data)
    m.m_params;
  W.u32 w m.m_rows;
  W.u32 w m.m_epochs;
  W.f64 w m.m_lr;
  W.f64 w m.m_split;
  W.float_array w m.m_losses;
  W.f64 w m.m_train_metric;
  W.f64 w m.m_test_metric

let r_model ~v2 r =
  let m_name = R.str r in
  let m_task = R.u8 r in
  let m_mode = R.u8 r in
  if m_task > 1 || m_mode > 1 then Bin_io.corrupt "unknown model task/mode";
  let m_recipe = R.str r in
  let m_target = R.str r in
  let m_schema = R.str r in
  let n_sources = R.u32 r in
  let m_sources =
    List.init n_sources (fun _ ->
        let name = R.str r in
        let gen = R.i64 r in
        (name, gen))
  in
  let m_sizes = Array.to_list (R.int_array r) in
  let m_seed = R.i64 r in
  let n_params = R.u32 r in
  let m_params =
    List.init n_params (fun _ ->
        let rows = R.u32 r in
        let cols = R.u32 r in
        let data = R.float_array r in
        if Array.length data <> rows * cols then Bin_io.corrupt "model param size mismatch";
        (rows, cols, data))
  in
  let m_rows = R.u32 r in
  let m_epochs = R.u32 r in
  let m_lr = if v2 then R.f64 r else legacy_lr in
  let m_split = if v2 then R.f64 r else legacy_split in
  let m_losses = R.float_array r in
  let m_train_metric = R.f64 r in
  let m_test_metric = R.f64 r in
  {
    m_name;
    m_task;
    m_mode;
    m_recipe;
    m_target;
    m_schema;
    m_sources;
    m_sizes;
    m_seed;
    m_params;
    m_rows;
    m_epochs;
    m_lr;
    m_split;
    m_losses;
    m_train_metric;
    m_test_metric;
  }

(* --- sections ------------------------------------------------------------ *)

let encode_section tag f =
  Trace.with_span ("store.encode." ^ String.lowercase_ascii tag) @@ fun () ->
  let w = W.create () in
  f w;
  (tag, W.contents w)

let encode_sections snap =
  let meta =
    encode_section s_meta (fun w ->
        W.str w snap.producer;
        W.f64 w snap.saved_at)
  in
  let graphs =
    encode_section s_graphs (fun w ->
        W.u32 w (List.length snap.graphs);
        List.iter
          (fun e ->
            W.str w e.g_name;
            W.str w e.g_spec;
            W.i64 w e.g_gen;
            w_graph w e.g_graph)
          snap.graphs)
  in
  let colorings =
    encode_section s_colorings (fun w ->
        W.u32 w (List.length snap.colorings);
        List.iter (fun entry -> w_coloring w entry) snap.colorings)
  in
  let plans =
    encode_section s_plans (fun w ->
        W.u32 w (List.length snap.plans);
        List.iter
          (fun (key, src) ->
            W.str w key;
            W.str w src)
          snap.plans)
  in
  (* The models section is emitted only when there are models, so pre-v6
     snapshot bytes are unchanged for model-free state; old readers
     ignore the unknown tag via the container either way. Writers emit
     the MOD2 codec only — legacy MODL is read-side compatibility. *)
  let models =
    match snap.models with
    | [] -> []
    | ms ->
        [
          encode_section s_models2 (fun w ->
              W.u32 w (List.length ms);
              List.iter (fun m -> w_model w m) ms);
        ]
  in
  let metrics =
    match snap.metrics with
    | None -> []
    | Some m ->
        [
          encode_section s_metrics (fun w ->
              W.i64 w m.m_requests;
              W.i64 w m.m_errors;
              W.i64 w m.m_bytes_in;
              W.i64 w m.m_bytes_out;
              W.u32 w (List.length m.m_by_command);
              List.iter
                (fun (cmd, count) ->
                  W.str w cmd;
                  W.i64 w count)
                m.m_by_command);
        ]
  in
  [ meta; graphs; colorings; plans ] @ models @ metrics

let encode snap = Container.to_string (encode_sections snap)

let decode_section sections tag f ~default =
  match List.assoc_opt tag sections with
  | None -> default ()
  | Some payload ->
      Trace.with_span ("store.decode." ^ String.lowercase_ascii tag) @@ fun () ->
      let r = R.of_string payload in
      let v = f r in
      R.expect_end r;
      v

let decode s =
  match Container.of_string s with
  | Error _ as e -> e
  | Ok sections -> (
      match
        let producer, saved_at =
          decode_section sections s_meta
            ~default:(fun () -> Bin_io.corrupt "missing %s section" s_meta)
            (fun r ->
              let producer = R.str r in
              let saved_at = R.f64 r in
              (producer, saved_at))
        in
        let graphs =
          decode_section sections s_graphs
            ~default:(fun () -> Bin_io.corrupt "missing %s section" s_graphs)
            (fun r ->
              let count = R.u32 r in
              List.init count (fun _ ->
                  let g_name = R.str r in
                  let g_spec = R.str r in
                  let g_gen = R.i64 r in
                  let g_graph = r_graph r in
                  { g_name; g_spec; g_gen; g_graph }))
        in
        let graph_of_name name =
          Option.map (fun e -> e.g_graph) (List.find_opt (fun e -> e.g_name = name) graphs)
        in
        let colorings =
          decode_section sections s_colorings
            ~default:(fun () -> [])
            (fun r ->
              let count = R.u32 r in
              List.init count (fun _ -> r_coloring ~graph_of_name r))
        in
        let plans =
          decode_section sections s_plans
            ~default:(fun () -> [])
            (fun r ->
              let count = R.u32 r in
              List.init count (fun _ ->
                  let key = R.str r in
                  let src = R.str r in
                  (key, src)))
        in
        let models =
          decode_section sections s_models2
            ~default:(fun () ->
              decode_section sections s_models
                ~default:(fun () -> [])
                (fun r ->
                  let count = R.u32 r in
                  List.init count (fun _ -> r_model ~v2:false r)))
            (fun r ->
              let count = R.u32 r in
              List.init count (fun _ -> r_model ~v2:true r))
        in
        let metrics =
          decode_section sections s_metrics
            ~default:(fun () -> None)
            (fun r ->
              let m_requests = R.i64 r in
              let m_errors = R.i64 r in
              let m_bytes_in = R.i64 r in
              let m_bytes_out = R.i64 r in
              let count = R.u32 r in
              let m_by_command =
                List.init count (fun _ ->
                    let cmd = R.str r in
                    let n = R.i64 r in
                    (cmd, n))
              in
              Some { m_requests; m_errors; m_bytes_in; m_bytes_out; m_by_command })
        in
        { producer; saved_at; graphs; colorings; plans; models; metrics }
      with
      | snap -> Ok snap
      | exception Bin_io.Corrupt msg -> Error msg
      | exception Invalid_argument msg -> Error ("invalid snapshot data: " ^ msg)
      | exception Failure msg -> Error ("invalid snapshot data: " ^ msg))

let write_file path snap = Container.write_file path (encode_sections snap)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> decode contents
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": unreadable (concurrent truncation?)")
