(* Embedding methods as views (slide 72, after Barcelo et al.,
   "GNNs with Local Graph Parameters", NeurIPS 2021).

   An F-MPNN first embeds the graph with a *fixed* complex embedding — here
   rooted homomorphism counts of a pattern family — and then runs a simple
   learnable embedding (an ordinary MPNN) over the materialised view.  The
   view strictly increases separation power: e.g. triangle-count features
   separate pairs that colour refinement cannot. *)

module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Count = Glql_hom.Count

type pattern = { pname : string; pgraph : Graph.t; proot : int }

(* Standard pattern family: rooted triangles and rooted cycles. *)
let triangle_pattern () =
  { pname = "triangle"; pgraph = Glql_graph.Generators.complete 3; proot = 0 }

let cycle_pattern k =
  { pname = Printf.sprintf "C%d" k; pgraph = Glql_graph.Generators.cycle k; proot = 0 }

let clique_pattern k =
  { pname = Printf.sprintf "K%d" k; pgraph = Glql_graph.Generators.complete k; proot = 0 }

(* Materialise the view: append, per vertex, hom(P^r, G, root -> v) for
   each pattern to the vertex labels. *)
let augment patterns g =
  let n = Graph.n_vertices g in
  let columns =
    List.map (fun p -> Count.rooted_hom_vector_any p.pgraph ~root:p.proot g) patterns
  in
  let labels =
    Array.init n (fun v ->
        Vec.concat (Graph.label g v :: List.map (fun col -> [| col.(v) |]) columns))
  in
  Graph.with_labels g labels

(* Separation power of the view composed with colour refinement: CR on the
   augmented graph — the coarsest thing any F-MPNN distinguishes. *)
let cr_equivalent_with_view patterns g h =
  Glql_wl.Color_refinement.equivalent_graphs (augment patterns g) (augment patterns h)
