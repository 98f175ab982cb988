(* Subgraph-selection policies (slide 71): the embedding methods between
   MPNN and 2-WL power — ID-aware GNNs, reconstruction GNNs, nested GNNs,
   ordered subgraph aggregation networks — all share one shape: transform
   the graph once per vertex choice, run a base embedding on each
   transform, and aggregate the multiset of results.

   A policy is the transform. *)

module Graph = Glql_graph.Graph
module Dist = Glql_graph.Dist
module Vec = Glql_tensor.Vec

type t =
  | Mark            (* ID-aware: append a 0/1 column marking the chosen vertex *)
  | Delete          (* reconstruction: delete the chosen vertex *)
  | Ego of int      (* nested: radius-r ego network with a marked centre *)

(* Append a marking column that is 1 exactly at [center]. *)
let mark_vertex g center =
  let n = Graph.n_vertices g in
  Graph.with_labels g
    (Array.init n (fun v ->
         Vec.concat [ Graph.label g v; [| (if v = center then 1.0 else 0.0) |] ]))

let apply policy g v =
  match policy with
  | Mark -> mark_vertex g v
  | Delete ->
      let keep = Array.of_list (List.filter (fun u -> u <> v) (List.init (Graph.n_vertices g) Fun.id)) in
      Graph.induced_subgraph g keep
  | Ego r ->
      let sub, center = Dist.ego_net g ~center:v ~radius:r in
      mark_vertex sub center

(* All transforms of a graph, one per vertex choice. *)
let transforms policy g = List.init (Graph.n_vertices g) (apply policy g)
