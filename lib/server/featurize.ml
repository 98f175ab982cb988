(* Feature-recipe evaluator (protocol v6). A recipe is a ';'-separated
   list of column specs, each materializing a block of float columns for
   every row of the matrix — one row per vertex (Fm_vertex) or one
   summary row for the whole graph (Fm_graph). Columns are evaluated
   through the server's Cache, so WL/k-WL colorings and compiled GEL
   plans are shared with QUERY/WL/KWL traffic and across FEATURIZE /
   TRAIN / PREDICT requests. *)

module P = Protocol
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Tree = Glql_hom.Tree
module Count = Glql_hom.Count
module Expr = Glql_gel.Expr
module Mat = Glql_tensor.Mat
module Clock = Glql_util.Clock

type column =
  | Col_label
  | Col_deg
  | Col_wl of int option  (* refinement round; None = stable *)
  | Col_kwl of int  (* k, graph mode only *)
  | Col_hom of int  (* all free trees up to this many vertices *)
  | Col_gel of string  (* GEL source; 1 free var (vertex) / closed (graph) *)

(* Graph-mode WL / k-WL histograms are a fixed-width summary (sorted
   class sizes, zero-padded) so the schema is stable across graphs of a
   training corpus even when their class counts differ. *)
let hist_width = 32
let max_columns = 64
let max_hom_size = 8

let column_name = function
  | Col_label -> "label"
  | Col_deg -> "deg"
  | Col_wl None -> "wl@stable"
  | Col_wl (Some r) -> Printf.sprintf "wl@%d" r
  | Col_kwl k -> Printf.sprintf "kwl%d" k
  | Col_hom s -> Printf.sprintf "hom%d" s
  | Col_gel src -> "gel:" ^ src

let parse_column spec =
  let starts p = String.length spec >= String.length p && String.sub spec 0 (String.length p) = p in
  let after p = String.sub spec (String.length p) (String.length spec - String.length p) in
  if spec = "label" then Ok Col_label
  else if spec = "deg" then Ok Col_deg
  else if spec = "wl" then Ok (Col_wl None)
  else if starts "wl@" then
    match int_of_string_opt (after "wl@") with
    | Some r when r >= 0 -> Ok (Col_wl (Some r))
    | _ -> Error (Printf.sprintf "wl@: expected a non-negative round, got %S" spec)
  else if starts "kwl" then
    match int_of_string_opt (after "kwl") with
    | Some k when k >= 2 && k <= 3 -> Ok (Col_kwl k)
    | _ -> Error (Printf.sprintf "kwl: k must be 2 or 3, got %S" spec)
  else if starts "hom" then
    match int_of_string_opt (after "hom") with
    | Some s when s >= 1 && s <= max_hom_size ->
        Ok (Col_hom s)
    | _ -> Error (Printf.sprintf "hom: size must be in 1..%d, got %S" max_hom_size spec)
  else if starts "gel:" then
    let src = after "gel:" in
    if String.trim src = "" then Error "gel: empty expression" else Ok (Col_gel src)
  else Error (Printf.sprintf "unknown column %S" spec)

let parse_recipe recipe =
  let specs =
    String.split_on_char ';' recipe |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  if specs = [] then Error "empty recipe"
  else if List.length specs > max_columns then
    Error (Printf.sprintf "recipe has more than %d columns" max_columns)
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> Result.bind (parse_column s) (fun c -> go (c :: acc) rest)
    in
    go [] specs

type built = {
  b_mode : P.feat_mode;
  b_cols : (string * int) list;  (* column name, width *)
  b_width : int;
  b_rows : float array array;
  b_schema : string;  (* mode + per-column widths, the model contract *)
  b_cache_hits : int;
  b_cache_misses : int;
}

let schema_of_widths mode cols =
  P.feat_mode_name mode ^ "|"
  ^ String.concat ";" (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) cols)

let schema_hash schema = Digest.to_hex (Digest.string schema)

(* Stable digest of the matrix contents: row-major f64 bits. *)
let row_digest rows =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun row -> Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) row)
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sorted_class_histogram colors =
  let max_c = Array.fold_left max (-1) colors in
  let counts = Array.make (max_c + 1) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors;
  Array.sort (fun a b -> compare b a) counts;
  let hist =
    Array.init hist_width (fun i -> if i < Array.length counts then float_of_int counts.(i) else 0.0)
  in
  (* More classes than buckets: fold the tail's mass into the final
     bucket so the row conserves total vertex count at fixed width,
     instead of silently dropping every class past hist_width. *)
  for i = hist_width to Array.length counts - 1 do
    hist.(hist_width - 1) <- hist.(hist_width - 1) +. float_of_int counts.(i)
  done;
  hist

(* Build one column block: [Ok (width, rows)] where [rows] has one entry
   per matrix row. Errors carry an (ERR_* code, message) pair.

   [check_cells width] is called the moment a column's width is known
   and BEFORE any row of the block is materialized: a vertex-mode wl
   one-hot is as wide as the stable class count — approaching n on a
   colour-diverse graph — so the cell budget must reject the block
   before the O(n·width) allocation it polices, not after. *)
let build_column ~cache ~graph_name ~gen ~deadline ~check_cells mode g col =
  let hits = ref 0 and misses = ref 0 in
  let note = function `Hit -> incr hits | `Miss -> incr misses in
  let n = Graph.n_vertices g in
  let bad fmt = Printf.ksprintf (fun m -> Error ("ERR_BAD_RECIPE", m)) fmt in
  let ( let* ) = Result.bind in
  let result =
    match (col, mode) with
    | Col_label, P.Fm_vertex ->
        let d = Graph.label_dim g in
        let* () = check_cells d in
        Ok (d, Array.init n (fun v -> Array.copy (Graph.label g v)))
    | Col_label, P.Fm_graph ->
        let d = Graph.label_dim g in
        let* () = check_cells d in
        let acc = Array.make d 0.0 in
        for v = 0 to n - 1 do
          let l = Graph.label g v in
          for j = 0 to d - 1 do
            acc.(j) <- acc.(j) +. l.(j)
          done
        done;
        Ok (d, [| acc |])
    | Col_deg, P.Fm_vertex ->
        let* () = check_cells 1 in
        Ok (1, Array.init n (fun v -> [| float_of_int (Graph.degree g v) |]))
    | Col_deg, P.Fm_graph ->
        let* () = check_cells 1 in
        Ok (1, [| [| float_of_int (2 * Graph.n_edges g) |] |])
    | Col_wl round, _ -> (
        let result, hit = Cache.cr cache ~graph_name ~gen ~deadline g in
        note hit;
        let colors =
          match round with
          | None -> List.hd (Cr.stable_colors result)
          | Some r -> List.hd (Cr.colors_at_round result (min r (Cr.rounds result)))
        in
        match mode with
        | P.Fm_graph ->
            let* () = check_cells hist_width in
            Ok (hist_width, [| sorted_class_histogram colors |])
        | P.Fm_vertex ->
            let width = 1 + Array.fold_left max (-1) colors in
            let* () = check_cells width in
            Ok
              ( width,
                Array.init n (fun v ->
                    let row = Array.make width 0.0 in
                    row.(colors.(v)) <- 1.0;
                    row) ))
    | Col_kwl _, P.Fm_vertex -> bad "%s: k-WL colors tuples; use GRAPH mode" (column_name col)
    | Col_kwl k, P.Fm_graph ->
        let* () = check_cells hist_width in
        let result, hit = Cache.kwl cache ~graph_name ~gen ~k ~deadline g in
        note hit;
        let colors = List.hd (Kwl.stable_colors result) in
        Ok (hist_width, [| sorted_class_histogram colors |])
    | Col_hom s, _ ->
        let patterns = Tree.all_free_trees_up_to s in
        let width = List.length patterns in
        let* () = check_cells width in
        let cols =
          List.map
            (fun pattern ->
              Clock.check deadline;
              Count.hom_tree_rooted pattern 0 g)
            patterns
        in
        (match mode with
        | P.Fm_vertex ->
            Ok (width, Array.init n (fun v -> Array.of_list (List.map (fun c -> c.(v)) cols)))
        | P.Fm_graph ->
            Ok (width, [| Array.of_list (List.map (Array.fold_left ( +. ) 0.0) cols) |]))
    | Col_gel src, _ -> (
        match Cache.plan cache src with
        | Error e -> bad "gel: %s" e
        | Ok (plan, hit) -> (
            note hit;
            match (mode, Expr.free_vars plan.Cache.expr) with
            | P.Fm_vertex, [ _ ] | P.Fm_graph, [] -> (
                (* One row per vertex, or the one row of a closed expression. *)
                let dim = Expr.dim plan.Cache.expr in
                let* () = check_cells dim in
                match Cache.eval_plan ~deadline plan g with
                | Error e -> bad "gel: %s" e
                | Ok m -> Ok (dim, Array.init (Mat.rows m) (Mat.row m)))
            | P.Fm_vertex, vars ->
                bad "gel: vertex mode needs exactly one free variable, expression has %d"
                  (List.length vars)
            | P.Fm_graph, vars ->
                bad "gel: graph mode needs a closed expression, got %d free variables"
                  (List.length vars)))
  in
  match result with
  | Error _ as e -> e
  | Ok (width, rows) -> Ok (width, rows, !hits, !misses)

(* Canonical form of a parsed recipe: the feature-cache key component.
   Column names round-trip through parse_column, so trimming / blank
   sections normalize away and "deg; wl" keys the same entry as "deg;wl". *)
let canonical_recipe cols = String.concat ";" (List.map column_name cols)

(* Assemble the matrix column by column: [Ok (matrix, hits, misses)]. *)
let build_cold ~cache ~graph_name ~gen ~deadline ~over_budget ~too_wide mode g cols n_rows =
  (* Running cell budget, enforced column by column before each block is
     materialized (see build_column): the accumulated matrix so far plus
     the candidate column's width must fit under max_cells, so the cap
     bounds peak allocation, not just the finished matrix. *)
  let acc_width = ref 0 in
  let check_cells w =
    let total = !acc_width + w in
    if over_budget total then too_wide total
    else begin
      acc_width := total;
      Ok ()
    end
  in
  let rec go acc hits misses = function
    | [] -> Ok (List.rev acc, hits, misses)
    | col :: rest -> (
        Clock.check deadline;
        match build_column ~cache ~graph_name ~gen ~deadline ~check_cells mode g col with
        | Error _ as e -> e
        | Ok (width, rows, h, m) ->
            if Array.length rows <> n_rows then
              Error
                ( "ERR_INTERNAL",
                  Printf.sprintf "column %s produced %d rows, expected %d" (column_name col)
                    (Array.length rows) n_rows )
            else go ((column_name col, width, rows) :: acc) (hits + h) (misses + m) rest)
  in
  match go [] 0 0 cols with
  | Error _ as e -> e
  | Ok (blocks, hits, misses) ->
      let width = List.fold_left (fun acc (_, w, _) -> acc + w) 0 blocks in
      let rows =
        Array.init n_rows (fun i ->
            let row = Array.make width 0.0 in
            let off = ref 0 in
            List.iter
              (fun (_, w, block) ->
                Array.blit block.(i) 0 row !off w;
                off := !off + w)
              blocks;
            row)
      in
      let col_widths = List.map (fun (name, w, _) -> (name, w)) blocks in
      (* Rows are shared, not copied: every consumer of the cached
         matrix treats them as read-only. *)
      Ok
        ( {
            Cache.fm_cols = col_widths;
            fm_width = width;
            fm_rows = rows;
            fm_schema = schema_of_widths mode col_widths;
          },
          hits,
          misses )

(* The matrix comes through the cache's single-flight lookup, so
   concurrent builds of one (graph, generation, mode, recipe) assemble it
   once. A hit reports one feature-level hit, since no column cache was
   consulted; a miss reports the column caches' hits and misses. *)
let build ~cache ~graph_name ~gen ?(deadline = None) ?(max_cells = 0) mode g cols =
  let n_rows = match mode with P.Fm_vertex -> Graph.n_vertices g | P.Fm_graph -> 1 in
  let over_budget width = max_cells > 0 && n_rows * width > max_cells in
  let too_wide width =
    Error
      ( "ERR_LIMIT_CELLS",
        Printf.sprintf "feature matrix %dx%d exceeds --max-cells %d" n_rows width max_cells )
  in
  let counts = ref (1, 0) in
  match
    Cache.features cache ~graph_name ~gen ~mode:(P.feat_mode_name mode)
      ~recipe:(canonical_recipe cols) ~deadline (fun () ->
        Result.map
          (fun (m, hits, misses) ->
            counts := (hits, misses);
            m)
          (build_cold ~cache ~graph_name ~gen ~deadline ~over_budget ~too_wide mode g cols n_rows))
  with
  | Error _ as e -> e
  | Ok (m, `Hit) when over_budget m.Cache.fm_width ->
      (* Same rejection a cold build would hit: a cached matrix must not
         smuggle an over-budget answer past --max-cells. *)
      too_wide m.Cache.fm_width
  | Ok (m, _) ->
      Ok
        {
          b_mode = mode;
          b_cols = m.Cache.fm_cols;
          b_width = m.Cache.fm_width;
          b_rows = m.Cache.fm_rows;
          b_schema = m.Cache.fm_schema;
          b_cache_hits = fst !counts;
          b_cache_misses = snd !counts;
        }
