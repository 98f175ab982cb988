(* The server's graph registry and the generator-name table shared with
   bin/gelq. Specs are deterministic by construction (no random families),
   so a spec names the same graph in every process. Each name carries its
   own generation: 0 when first bound, one more on every re-binding or
   applied MUTATE. The colouring cache keys entries by (name, generation),
   so re-LOADing a name can never serve a colouring computed on the
   replaced graph, and the number depends only on that name's history —
   every topology and every restart from a snapshot report the same one.

   Spec sizes are checked *before* construction: a `LOAD g complete20000`
   is rejected upfront instead of materialising ~2e8 edges and then
   running unbounded WL on them. *)

module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators

let fixed : (string * (unit -> Graph.t)) list =
  [
    ("petersen", Generators.petersen);
    ("rook", Generators.rook_4x4);
    ("shrikhande", Generators.shrikhande);
    ("decalin", Generators.decalin);
    ("bicyclopentyl", Generators.bicyclopentyl);
    ("two-triangles", fun () -> Graph.disjoint_union (Generators.cycle 3) (Generators.cycle 3));
    ("hexagon", fun () -> Generators.cycle 6);
  ]

let generator_names = List.map fst fixed

let generator_patterns =
  [ "cycle<N>"; "path<N>"; "complete<N>"; "star<N>"; "grid<R>x<C>"; "circulant<N>c<S>c<S>..." ]

(* The default caps are env-overridable so benchmark and stress setups
   can serve corpus-scale graphs (million-edge SBM/ER and beyond) from
   the same daemon without a rebuild; a non-positive or malformed value
   falls back to the built-in default. *)
let env_cap var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some v when v > 0 -> v | _ -> default)

let default_max_vertices = env_cap "GLQL_SPEC_MAX_VERTICES" 100_000

let default_max_edges = env_cap "GLQL_SPEC_MAX_EDGES" 4_000_000

(* Reject oversized specs before building anything. [ne] is a thunk: edge
   formulas like n*(n-1)/2 can overflow for absurd [n], so they are only
   evaluated once the vertex bound (which also bounds the formula inputs)
   has passed. *)
let sized_guard ~max_vertices ~max_edges name ~nv ~ne make =
  if nv < 0 || nv > max_vertices then
    Error
      (Printf.sprintf "%s: %d vertices exceed the %d-vertex spec limit" name nv max_vertices)
  else
    let ne = ne () in
    if ne > max_edges then
      Error (Printf.sprintf "%s: %d edges exceed the %d-edge spec limit" name ne max_edges)
    else Ok (make ())

let sized name ~prefix =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

let atom_of_name ~max_vertices ~max_edges name =
  let guard = sized_guard ~max_vertices ~max_edges name in
  match List.assoc_opt name fixed with
  | Some make -> Ok (make ())
  | None -> (
      match
        ( sized name ~prefix:"cycle",
          sized name ~prefix:"path",
          sized name ~prefix:"complete",
          sized name ~prefix:"star" )
      with
      | Some n, _, _, _ when n >= 3 ->
          guard ~nv:n ~ne:(fun () -> n) (fun () -> Generators.cycle n)
      | Some n, _, _, _ -> Error (Printf.sprintf "cycle%d: cycles need at least 3 vertices" n)
      | _, Some n, _, _ when n >= 1 ->
          guard ~nv:n ~ne:(fun () -> n - 1) (fun () -> Generators.path n)
      | _, _, Some n, _ when n >= 1 ->
          guard ~nv:n ~ne:(fun () -> n * (n - 1) / 2) (fun () -> Generators.complete n)
      | _, _, _, Some n when n >= 1 ->
          guard ~nv:(n + 1) ~ne:(fun () -> n) (fun () ->
              (* Star labels mark every vertex so degree queries see leaves. *)
              let g = Generators.star n in
              Graph.with_labels g (Array.make (Graph.n_vertices g) [| 1.0 |]))
      | _ -> (
          let grid_spec =
            if String.length name > 4 && String.sub name 0 4 = "grid" then
              match String.index_opt name 'x' with
              | Some i -> (
                  match
                    ( int_of_string_opt (String.sub name 4 (i - 4)),
                      int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) )
                  with
                  | Some r, Some c when r >= 1 && c >= 1 -> Some (r, c)
                  | _ -> None)
              | None -> None
            else None
          in
          match grid_spec with
          | Some (r, c) ->
              (* Check the sides before multiplying so r*c cannot wrap. *)
              if r > max_vertices || c > max_vertices then
                Error
                  (Printf.sprintf "%s: grid side exceeds the %d-vertex spec limit" name
                     max_vertices)
              else
                guard ~nv:(r * c)
                  ~ne:(fun () -> (r * (c - 1)) + (c * (r - 1)))
                  (fun () -> Generators.grid r c)
          | None -> (
              if String.length name > 9 && String.sub name 0 9 = "circulant" then
                match String.split_on_char 'c' (String.sub name 9 (String.length name - 9)) with
                | n_str :: offsets when offsets <> [] -> (
                    match
                      ( int_of_string_opt n_str,
                        List.map int_of_string_opt offsets )
                    with
                    | Some n, offs when n >= 3 && List.for_all Option.is_some offs ->
                        guard ~nv:n
                          ~ne:(fun () -> n * List.length offs)
                          (fun () -> Generators.circulant n (List.map Option.get offs))
                    | _ -> Error (Printf.sprintf "bad circulant spec %S" name)
                  )
                | _ -> Error (Printf.sprintf "bad circulant spec %S" name)
              else
                Error
                  (Printf.sprintf
                     "unknown graph %S (known: %s; patterns: %s; combine with '+')" name
                     (String.concat ", " generator_names)
                     (String.concat ", " generator_patterns)))))

let graph_of_spec ?(max_vertices = default_max_vertices) ?(max_edges = default_max_edges) spec =
  match String.split_on_char '+' (String.trim spec) with
  | [] | [ "" ] -> Error "empty graph spec"
  | atoms ->
      let union_guard g =
        if Graph.n_vertices g > max_vertices then
          Error (Printf.sprintf "union exceeds the %d-vertex spec limit" max_vertices)
        else if Graph.n_edges g > max_edges then
          Error (Printf.sprintf "union exceeds the %d-edge spec limit" max_edges)
        else Ok g
      in
      let rec build acc = function
        | [] -> Ok acc
        | a :: rest -> (
            match atom_of_name ~max_vertices ~max_edges (String.trim a) with
            | Error _ as e -> e
            | Ok g -> (
                match union_guard (Graph.disjoint_union acc g) with
                | Error _ as e -> e
                | Ok u -> build u rest))
      in
      (match atoms with
      | first :: rest -> (
          match atom_of_name ~max_vertices ~max_edges (String.trim first) with
          | Error _ as e -> e
          | Ok g -> build g rest)
      | [] -> assert false)

(* Canonical form of a spec string: atoms trimmed of surrounding blanks,
   joined with a bare '+'. The fallback path of [find_binding] caches under
   this form, so "sbm10 + path3" and "sbm10+path3" share one entry (and
   one generation, hence one set of colouring-cache keys). *)
let canonical_spec spec =
  String.split_on_char '+' (String.trim spec) |> List.map String.trim |> String.concat "+"

type entry = { graph : Graph.t; spec : string; gen : int }

type t = { tbl : (string, entry) Hashtbl.t; mutex : Mutex.t }

let create () = { tbl = Hashtbl.create 16; mutex = Mutex.create () }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Under the lock: bind [name] at one past its current generation (0
   when new), or at [at_least] when that is later. Nothing unbinds a
   name, so a name's generations only grow and none is ever reused. *)
let bind ?(at_least = 0) t name ~spec graph =
  let next = match Hashtbl.find_opt t.tbl name with Some e -> e.gen + 1 | None -> 0 in
  let gen = max at_least next in
  Hashtbl.replace t.tbl name { graph; spec; gen };
  gen

let register t ~name ~spec =
  Glql_util.Trace.with_span ~args:[ ("spec", spec) ] "load.graph" @@ fun () ->
  match graph_of_spec spec with
  | Error _ as e -> e
  | Ok g ->
      ignore (with_lock t (fun () -> bind t name ~spec:(canonical_spec spec) g));
      Ok g

let register_prebuilt t ~name ~spec ~gen g =
  with_lock t (fun () -> bind ~at_least:gen t name ~spec g)

(* Under the lock: the binding [name] resolves to, as (key, entry) —
   [name] itself, or else its canonical spelling. *)
let resolve t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> Some (name, e)
  | None ->
      let canonical = canonical_spec name in
      Option.map (fun e -> (canonical, e)) (Hashtbl.find_opt t.tbl canonical)

let find_binding t name =
  match with_lock t (fun () -> resolve t name) with
  | Some (key, e) -> Ok (key, e.graph, e.gen)
  | None -> (
      (* Fall back to reading the name itself as a spec, caching the
         result under its canonical whitespace-normalised form so
         spellings of one spec share one graph (and its colouring cache
         entries). *)
      let canonical = canonical_spec name in
      match graph_of_spec canonical with
      | Error _ ->
          Error
            (Printf.sprintf "no graph named %S (LOAD one, or use a generator spec)" name)
      | Ok g ->
          Ok
            (with_lock t (fun () ->
                 (* Another domain may have registered the name meanwhile;
                    keep its binding so both callers share one generation. *)
                 match Hashtbl.find_opt t.tbl canonical with
                 | Some e -> (canonical, e.graph, e.gen)
                 | None -> (canonical, g, bind t canonical ~spec:canonical g))))

let find_entry t name = Result.map (fun (_, g, gen) -> (g, gen)) (find_binding t name)

let find t name = Result.map fst (find_entry t name)

(* --- v5 mutations ---------------------------------------------------- *)

type op =
  | Add_edge of int * int
  | Del_edge of int * int
  | Set_label of int * float array

type rejected = { r_index : int; r_op : string; r_code : string; r_message : string }

type mutation_outcome = {
  m_key : string;
  m_graph : Graph.t;
  m_old_gen : int;
  m_gen : int;
  m_added : int;
  m_deleted : int;
  m_relabeled : int;
  m_rejected : rejected list;
  m_touched_adj : int list;
  m_touched_lab : int list;
}

let op_name = function
  | Add_edge _ -> "ADD_EDGE"
  | Del_edge _ -> "DEL_EDGE"
  | Set_label _ -> "SET_LABEL"

(* Apply one MUTATE batch atomically: ops validate sequentially against
   the evolving edge/label state (so ADD (u,v) then DEL (u,v) in one
   batch is two applied ops), invalid ops are skipped and reported with
   their index, and the binding advances in place to the next generation
   iff at least one op applied — the explicit replacement for the old
   "re-LOAD the name" shadow idiom, which rebuilt from scratch and threw
   every cached colouring away. Everything runs under the registry lock,
   so concurrent MUTATE/LOAD/find interleave at batch granularity. *)
let mutate t ~name ops =
  with_lock t @@ fun () ->
  match resolve t name with
  | None ->
      Error (Printf.sprintf "no graph named %S (LOAD it first; MUTATE does not build specs)" name)
  | Some (key, e) ->
      let g = e.graph in
      let n = Graph.n_vertices g in
      let dim = Graph.label_dim g in
      let norm u v = if u < v then (u, v) else (v, u) in
      (* Evolving overlay state: edge presence and pending labels. *)
      let edge_delta : (int * int, bool) Hashtbl.t = Hashtbl.create 16 in
      let lab_delta : (int, float array) Hashtbl.t = Hashtbl.create 16 in
      let present u v =
        match Hashtbl.find_opt edge_delta (norm u v) with
        | Some b -> b
        | None -> Graph.has_edge g u v
      in
      let rejected = ref [] in
      let added = ref 0 and deleted = ref 0 and relabeled = ref 0 in
      let reject i op msg =
        rejected :=
          { r_index = i; r_op = op_name op; r_code = "ERR_BAD_ARG"; r_message = msg }
          :: !rejected
      in
      List.iteri
        (fun i op ->
          match op with
          | Add_edge (u, v) ->
              if u < 0 || u >= n || v < 0 || v >= n then
                reject i op (Printf.sprintf "edge (%d,%d): vertex out of range [0,%d)" u v n)
              else if u = v then reject i op (Printf.sprintf "edge (%d,%d): self-loop" u v)
              else if present u v then
                reject i op (Printf.sprintf "edge (%d,%d) already present" u v)
              else begin
                Hashtbl.replace edge_delta (norm u v) true;
                incr added
              end
          | Del_edge (u, v) ->
              if u < 0 || u >= n || v < 0 || v >= n then
                reject i op (Printf.sprintf "edge (%d,%d): vertex out of range [0,%d)" u v n)
              else if u = v then reject i op (Printf.sprintf "edge (%d,%d): self-loop" u v)
              else if not (present u v) then
                reject i op (Printf.sprintf "edge (%d,%d) not present" u v)
              else begin
                Hashtbl.replace edge_delta (norm u v) false;
                incr deleted
              end
          | Set_label (v, l) ->
              if v < 0 || v >= n then
                reject i op (Printf.sprintf "vertex %d out of range [0,%d)" v n)
              else if Array.length l <> dim then
                reject i op
                  (Printf.sprintf "label dimension %d <> graph label dimension %d"
                     (Array.length l) dim)
              else begin
                Hashtbl.replace lab_delta v l;
                incr relabeled
              end)
        ops;
      let rejected = List.rev !rejected in
      if !added + !deleted + !relabeled = 0 then
        Ok
          {
            m_key = key;
            m_graph = g;
            m_old_gen = e.gen;
            m_gen = e.gen;
            m_added = 0;
            m_deleted = 0;
            m_relabeled = 0;
            m_rejected = rejected;
            m_touched_adj = [];
            m_touched_lab = [];
          }
      else begin
        (* Net structural delta against the base graph (a batch that adds
           then deletes one edge nets out to nothing). *)
        let add_edges = ref [] and del_edges = ref [] in
        Hashtbl.iter
          (fun (u, v) want ->
            let have = Graph.has_edge g u v in
            if want && not have then add_edges := (u, v) :: !add_edges
            else if (not want) && have then del_edges := (u, v) :: !del_edges)
          edge_delta;
        let set_labels = Hashtbl.fold (fun v l acc -> (v, l) :: acc) lab_delta [] in
        let g' = Graph.mutate g ~add_edges:!add_edges ~del_edges:!del_edges ~set_labels in
        (* The stored spec no longer describes the graph; mark it so
           snapshots and operators see an honest provenance string. *)
        let spec =
          if String.length e.spec >= 8 && String.sub e.spec 0 8 = "mutated:" then e.spec
          else "mutated:" ^ e.spec
        in
        let gen = bind t key ~spec g' in
        let touched_adj =
          List.sort_uniq compare
            (List.concat_map (fun (u, v) -> [ u; v ]) (!add_edges @ !del_edges))
        in
        let touched_lab = List.sort_uniq compare (List.map fst set_labels) in
        Ok
          {
            m_key = key;
            m_graph = g';
            m_old_gen = e.gen;
            m_gen = gen;
            m_added = !added;
            m_deleted = !deleted;
            m_relabeled = !relabeled;
            m_rejected = rejected;
            m_touched_adj = touched_adj;
            m_touched_lab = touched_lab;
          }
      end

let list t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun name e acc -> (name, Graph.n_vertices e.graph, Graph.n_edges e.graph) :: acc)
        t.tbl [])
  |> List.sort compare

let entries t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name e acc -> (name, e.spec, e.gen, e.graph) :: acc) t.tbl [])
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let n_graphs t = with_lock t (fun () -> Hashtbl.length t.tbl)
