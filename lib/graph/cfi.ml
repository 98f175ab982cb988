(* Cai-Fürer-Immerman construction (slide 65's witness family).

   Given a connected base graph B and a set T of "twisted" base edges, the
   CFI graph CFI(B, T) consists of, for every base vertex v of degree d:

     - a middle vertex  m_{v,S}  for every even-cardinality subset S of the
       edges incident to v (2^{d-1} of them), and
     - two edge-port vertices  a_{v,e,0} and a_{v,e,1}  for every incident
       edge e,

   with m_{v,S} adjacent to a_{v,e,1} when e is in S and to a_{v,e,0}
   otherwise.  For every base edge e = {u, v}, ports are joined straight
   (a_{u,e,i} -- a_{v,e,i}) when e is untwisted and crossed when e is in T.

   Vertices carry one-hot labels identifying their colour class: one class
   per base vertex (its middles) and one per incident pair (v, e) (its two
   ports).  Classic facts reproduced by experiment E4:

     - CFI(B, T) and CFI(B, T') are isomorphic iff |T| and |T'| have the
       same parity, so a single twist yields a non-isomorphic companion;
     - distinguishing the twisted from the untwisted graph requires
       Weisfeiler-Leman dimension that grows with the treewidth of B. *)

type vertex_kind =
  | Middle of int * int list  (* base vertex, even incident-edge subset *)
  | Port of int * int * int   (* base vertex, base-edge index, bit *)

type t = {
  graph : Graph.t;
  kinds : vertex_kind array;
}

let even_subsets edges =
  (* All subsets of [edges] of even cardinality, as sorted lists. *)
  let rec go = function
    | [] -> [ [] ]
    | e :: rest ->
        let subs = go rest in
        subs @ List.map (fun s -> e :: s) subs
  in
  List.filter (fun s -> List.length s mod 2 = 0) (go edges)

let build ?(twisted = []) base =
  if not (Graph.is_connected base) then invalid_arg "Cfi.build: base must be connected";
  let base_edges = Array.of_list (Graph.edges base) in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length base_edges then invalid_arg "Cfi.build: bad twisted index")
    twisted;
  let nb = Graph.n_vertices base in
  (* Incident edge indices per base vertex. *)
  let incident = Array.make nb [] in
  Array.iteri
    (fun ei (u, v) ->
      incident.(u) <- ei :: incident.(u);
      incident.(v) <- ei :: incident.(v))
    base_edges;
  Array.iteri (fun v l -> incident.(v) <- List.sort compare l) incident;
  (* Allocate vertices. *)
  let kinds = ref [] in
  let next = ref 0 in
  let fresh kind =
    kinds := kind :: !kinds;
    let id = !next in
    incr next;
    id
  in
  let middle_ids = Array.make nb [] in
  (* port_ids.(v) is an assoc list: edge index -> (id of bit 0, id of bit 1). *)
  let port_ids = Array.make nb [] in
  for v = 0 to nb - 1 do
    List.iter
      (fun s -> middle_ids.(v) <- (s, fresh (Middle (v, s))) :: middle_ids.(v))
      (even_subsets incident.(v));
    List.iter
      (fun ei ->
        let p0 = fresh (Port (v, ei, 0)) in
        let p1 = fresh (Port (v, ei, 1)) in
        port_ids.(v) <- (ei, (p0, p1)) :: port_ids.(v))
      incident.(v)
  done;
  let port v ei bit =
    let p0, p1 = List.assoc ei port_ids.(v) in
    if bit = 0 then p0 else p1
  in
  let edges = ref [] in
  (* Gadget-internal edges. *)
  for v = 0 to nb - 1 do
    List.iter
      (fun (s, mid) ->
        List.iter
          (fun ei ->
            let bit = if List.mem ei s then 1 else 0 in
            edges := (mid, port v ei bit) :: !edges)
          incident.(v))
      middle_ids.(v)
  done;
  (* Cross-gadget connections per base edge, straight or crossed. *)
  Array.iteri
    (fun ei (u, v) ->
      let cross = List.mem ei twisted in
      if cross then begin
        edges := (port u ei 0, port v ei 1) :: !edges;
        edges := (port u ei 1, port v ei 0) :: !edges
      end
      else begin
        edges := (port u ei 0, port v ei 0) :: !edges;
        edges := (port u ei 1, port v ei 1) :: !edges
      end)
    base_edges;
  let n = !next in
  let kinds = Array.of_list (List.rev !kinds) in
  (* Colour classes: base-vertex id for middles; nb + 2*edge + side for
     ports, where side says which endpoint of the base edge the port
     belongs to (ports of one class are the interchangeable pair). *)
  let n_colors = nb + (2 * Array.length base_edges) in
  let colors =
    Array.map
      (fun kind ->
        match kind with
        | Middle (v, _) -> v
        | Port (v, ei, _) ->
            let u, w = base_edges.(ei) in
            let side = if v = u then 0 else if v = w then 1 else assert false in
            nb + (2 * ei) + side)
      kinds
  in
  let graph =
    Graph.with_one_hot_labels
      (Graph.unlabelled ~n ~edges:!edges)
      colors ~n_colors
  in
  { graph; kinds }

let graph t = t.graph

let kind t v = t.kinds.(v)

(* The canonical experiment pair: untwisted vs one-edge-twisted. *)
let pair base =
  let plain = build base in
  let twisted = build ~twisted:[ 0 ] base in
  (plain.graph, twisted.graph)
