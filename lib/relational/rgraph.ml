(* Multi-relational graphs (slide 74: "Relational embeddings. Initial work
   by considering multi-relation graphs and analyzing power").

   A relational graph is a vertex-labelled graph whose edges carry one of
   finitely many relation types; equivalently, a knowledge-graph-style
   structure with undirected typed edges. *)

module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph

type t = {
  n : int;
  n_relations : int;
  adj : int array array array;  (* adj.(r).(v) = sorted neighbours via relation r *)
  labels : Vec.t array;
}

let n_vertices t = t.n

let n_relations t = t.n_relations

let neighbors t ~relation v =
  if relation < 0 || relation >= t.n_relations then invalid_arg "Rgraph.neighbors: bad relation";
  t.adj.(relation).(v)

let label t v = t.labels.(v)

let create ~n ~n_relations ~edges ~labels =
  if Array.length labels <> n then invalid_arg "Rgraph.create: |labels| <> n";
  let label_dim = if n = 0 then 0 else Vec.dim labels.(0) in
  Array.iter
    (fun l -> if Vec.dim l <> label_dim then invalid_arg "Rgraph.create: ragged labels")
    labels;
  let sets = Array.init n_relations (fun _ -> Array.make n []) in
  List.iter
    (fun (r, u, v) ->
      if r < 0 || r >= n_relations then invalid_arg "Rgraph.create: bad relation";
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Rgraph.create: vertex out of range";
      if u <> v then begin
        sets.(r).(u) <- v :: sets.(r).(u);
        sets.(r).(v) <- u :: sets.(r).(v)
      end)
    edges;
  let adj =
    Array.map
      (Array.map (fun l ->
           let a = Array.of_list (List.sort_uniq compare l) in
           a))
      sets
  in
  { n; n_relations; adj; labels = Array.map Vec.copy labels }

(* View a plain graph as a single-relation structure. *)
let of_graph g =
  let n = Graph.n_vertices g in
  {
    n;
    n_relations = 1;
    adj = [| Array.init n (fun v -> Array.copy (Graph.neighbors g v)) |];
    labels = Array.init n (fun v -> Vec.copy (Graph.label g v));
  }

(* Forget the relation types: the union graph. *)
let union_graph t =
  let edges = ref [] in
  for r = 0 to t.n_relations - 1 do
    for v = 0 to t.n - 1 do
      Array.iter (fun u -> if v < u then edges := (v, u) :: !edges) t.adj.(r).(v)
    done
  done;
  Graph.create ~n:t.n ~edges:!edges ~labels:t.labels

let edges t =
  let out = ref [] in
  for r = t.n_relations - 1 downto 0 do
    for v = t.n - 1 downto 0 do
      Array.iter (fun u -> if v < u then out := (r, v, u) :: !out) t.adj.(r).(v)
    done
  done;
  !out

let permute t perm =
  let labels = Array.make t.n [||] in
  for v = 0 to t.n - 1 do
    labels.(perm.(v)) <- t.labels.(v)
  done;
  create ~n:t.n ~n_relations:t.n_relations
    ~edges:(List.map (fun (r, u, v) -> (r, perm.(u), perm.(v))) (edges t))
    ~labels

let random rng ~n ~n_relations ~p =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Glql_util.Rng.float rng < p then
        edges := (Glql_util.Rng.int rng n_relations, u, v) :: !edges
    done
  done;
  create ~n ~n_relations ~edges:!edges ~labels:(Array.make n [| 1.0 |])
