(* Enumeration of trees, used by experiment E2 (slide 27: two graphs are
   colour-refinement equivalent iff hom(T, G) = hom(T, H) for all trees T).

   Rooted trees are generated size by size; a rooted tree is a multiset of
   smaller rooted trees, generated in non-increasing (size, index) order so
   each multiset appears exactly once.  Free trees are obtained by
   deduplicating rooted trees under the centroid-rooted AHU canonical
   form. *)

module Graph = Glql_graph.Graph

type rooted = Node of rooted list

(* rooted_by_size.(n) lists all rooted trees with exactly n vertices. *)
let rooted_by_size =
  let cache = Hashtbl.create 16 in
  let rec trees n =
    match Hashtbl.find_opt cache n with
    | Some ts -> ts
    | None ->
        let result =
          if n = 1 then [| Node [] |]
          else begin
            (* Forests with [total] vertices whose trees are bounded by
               (size, index) <= (bound_size, bound_idx), non-increasing. *)
            let rec forests total bound_size bound_idx =
              if total = 0 then [ [] ]
              else begin
                let acc = ref [] in
                for s = min total bound_size downto 1 do
                  let ts = trees s in
                  let max_idx = if s = bound_size then bound_idx else Array.length ts - 1 in
                  for i = min max_idx (Array.length ts - 1) downto 0 do
                    List.iter
                      (fun rest -> acc := (ts.(i) :: rest) :: !acc)
                      (forests (total - s) s i)
                  done
                done;
                !acc
              end
            in
            forests (n - 1) (n - 1) max_int
            |> List.map (fun children -> Node children)
            |> Array.of_list
          end
        in
        Hashtbl.add cache n result;
        result
  in
  trees

let rooted_trees n =
  if n < 1 then invalid_arg "Tree.rooted_trees: n >= 1 required";
  Array.to_list (rooted_by_size n)

(* Convert a rooted tree to an unlabelled graph; vertex 0 is the root and
   children get consecutive ids in DFS order. *)
let to_graph root =
  let edges = ref [] in
  let next = ref 0 in
  let rec go parent (Node children) =
    let id = !next in
    incr next;
    (match parent with Some p -> edges := (p, id) :: !edges | None -> ());
    List.iter (go (Some id)) children
  in
  go None root;
  Graph.unlabelled ~n:!next ~edges:!edges

(* Centroid(s) of a tree graph: the one or two vertices minimising the
   maximum component size after removal. *)
let centroids g =
  let n = Graph.n_vertices g in
  if n = 0 then []
  else begin
    let subtree = Array.make n 1 in
    let order = ref [] in
    let parent = Array.make n (-1) in
    (* Iterative DFS from 0 recording a postorder. *)
    let visited = Array.make n false in
    let stack = ref [ 0 ] in
    visited.(0) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
          stack := rest;
          order := v :: !order;
          Array.iter
            (fun u ->
              if not visited.(u) then begin
                visited.(u) <- true;
                parent.(u) <- v;
                stack := u :: !stack
              end)
            (Graph.neighbors g v)
    done;
    (* !order is reverse-postorder-ish (preorder reversed): children appear
       before parents when traversed in list order. *)
    List.iter
      (fun v -> if parent.(v) >= 0 then subtree.(parent.(v)) <- subtree.(parent.(v)) + subtree.(v))
      !order;
    let best = ref max_int in
    let who = ref [] in
    for v = 0 to n - 1 do
      let worst = ref (n - subtree.(v)) in
      Array.iter
        (fun u -> if parent.(u) = v then worst := max !worst subtree.(u))
        (Graph.neighbors g v);
      if !worst < !best then begin
        best := !worst;
        who := [ v ]
      end
      else if !worst = !best then who := v :: !who
    done;
    List.sort compare !who
  end

(* AHU canonical string of a tree graph rooted at [root]. *)
let canon_graph_rooted g root =
  let rec go v parent =
    let parts =
      Array.to_list (Graph.neighbors g v)
      |> List.filter (fun u -> u <> parent)
      |> List.map (fun u -> go u v)
    in
    "(" ^ String.concat "" (List.sort compare parts) ^ ")"
  in
  go root (-1)

(* Canonical form of a free tree: minimum AHU string over its centroids. *)
let canon_free g =
  match centroids g with
  | [] -> "()"
  | cs -> List.fold_left (fun acc c -> min acc (canon_graph_rooted g c)) "~" cs

let free_trees n =
  if n < 1 then invalid_arg "Tree.free_trees: n >= 1 required";
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun rt ->
      let g = to_graph rt in
      let key = canon_free g in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some g
      end)
    (rooted_trees n)

let all_free_trees_up_to n =
  List.concat_map free_trees (List.init n (fun i -> i + 1))

let is_tree g =
  Graph.n_vertices g > 0
  && Graph.is_connected g
  && Graph.n_edges g = Graph.n_vertices g - 1
