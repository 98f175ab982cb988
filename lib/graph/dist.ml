(* Breadth-first distances, balls and ego networks. Nested /
   subgraph GNNs (slide 71) run message passing inside radius-r ego nets;
   distance encodings are a classic symmetry-breaking feature. *)

let bfs g source =
  let n = Graph.n_vertices g in
  let dist = Array.make n (-1) in
  dist.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if dist.(u) = -1 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      (Graph.neighbors g v)
  done;
  dist

(* Vertices within distance [radius] of [center], sorted; always contains
   the centre itself. *)
let ball g ~center ~radius =
  let dist = bfs g center in
  let members = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if dist.(v) >= 0 && dist.(v) <= radius then members := v :: !members
  done;
  Array.of_list !members

(* Ego network: the subgraph induced by the radius-[radius] ball, with the
   centre renumbered to its position in the sorted member list. Returns
   the subgraph and the centre's new index. *)
let ego_net g ~center ~radius =
  let members = ball g ~center ~radius in
  let sub = Graph.induced_subgraph g members in
  let center_index = ref 0 in
  Array.iteri (fun i v -> if v = center then center_index := i) members;
  (sub, !center_index)
