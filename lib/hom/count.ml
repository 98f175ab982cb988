(* Homomorphism and subgraph counting.

   hom(P, G) counts maps V_P -> V_G sending edges to edges (slide 27).
   For tree patterns we use the classical linear-time dynamic program over
   the tree; for general small patterns a pruned backtracking count.
   Labels are ignored by default; pass [compatible] to restrict the maps
   (e.g. label-preserving homomorphisms). *)

module Graph = Glql_graph.Graph
module Pool = Glql_util.Pool

let default_compatible _pattern_v _graph_v = true

(* DP for tree patterns rooted at [root]: down.(t).(v) = number of
   homomorphisms of the subtree rooted at t mapping t to v. *)
let hom_tree_rooted ?(compatible = default_compatible) pattern root g =
  if not (Tree.is_tree pattern) then invalid_arg "Count.hom_tree_rooted: pattern is not a tree";
  let n = Graph.n_vertices g in
  let csr = Graph.csr g in
  let offsets = csr.Graph.Csr.offsets and adjacency = csr.Graph.Csr.adjacency in
  let rec down t parent =
    let children = Array.to_list (Graph.neighbors pattern t) |> List.filter (fun u -> u <> parent) in
    let child_tables = List.map (fun c -> down c t) children in
    Array.init n (fun v ->
        if not (compatible t v) then 0.0
        else
          List.fold_left
            (fun acc table ->
              if acc = 0.0 then 0.0
              else begin
                (* Neighbour sum over v's flat CSR row, in the same
                   (sorted) order as the adjacency-list walk. *)
                let s = ref 0.0 in
                for i = offsets.(v) to offsets.(v + 1) - 1 do
                  s := !s +. Array.unsafe_get table (Array.unsafe_get adjacency i)
                done;
                acc *. !s
              end)
            1.0 child_tables)
  in
  down root (-1)

(* hom(T, G) for a tree pattern: root anywhere and sum over images. *)
let hom_tree ?compatible pattern g =
  let table = hom_tree_rooted ?compatible pattern 0 g in
  Array.fold_left ( +. ) 0.0 table

(* Backtracking hom count for arbitrary small patterns. Pattern vertices
   are processed in a connectivity-aware order so edge constraints apply
   as early as possible. *)
let hom_bruteforce ?(compatible = default_compatible) ?(injective = false) pattern g =
  let np = Graph.n_vertices pattern in
  let n = Graph.n_vertices g in
  if np = 0 then 1.0
  else begin
    (* Order: greedy, always next a vertex with most already-ordered
       neighbours (ties by degree). *)
    let order = Array.make np (-1) in
    let placed = Array.make np false in
    for i = 0 to np - 1 do
      let best = ref (-1) in
      let best_key = ref (-1, -1) in
      for v = 0 to np - 1 do
        if not placed.(v) then begin
          let back = ref 0 in
          Array.iter (fun u -> if placed.(u) then incr back) (Graph.neighbors pattern v);
          let key = (!back, Graph.degree pattern v) in
          if key > !best_key then begin
            best_key := key;
            best := v
          end
        end
      done;
      order.(i) <- !best;
      placed.(!best) <- true
    done;
    let image = Array.make np (-1) in
    let used = Array.make n false in
    let count = ref 0.0 in
    let rec go i =
      if i = np then count := !count +. 1.0
      else begin
        let pv = order.(i) in
        for v = 0 to n - 1 do
          if compatible pv v && ((not injective) || not used.(v)) then begin
            let ok = ref true in
            Array.iter
              (fun pu -> if image.(pu) <> -1 && not (Graph.has_edge g v image.(pu)) then ok := false)
              (Graph.neighbors pattern pv);
            if !ok then begin
              image.(pv) <- v;
              if injective then used.(v) <- true;
              go (i + 1);
              image.(pv) <- -1;
              if injective then used.(v) <- false
            end
          end
        done
      end
    in
    go 0;
    !count
  end

(* hom(P, G) choosing the tree DP when possible. *)
let hom ?compatible pattern g =
  if Tree.is_tree pattern then hom_tree ?compatible pattern g
  else hom_bruteforce ?compatible pattern g

(* Number of subgraphs of G isomorphic to P = injective homs / |Aut(P)|. *)
let automorphism_count pattern =
  hom_bruteforce ~injective:true pattern pattern

let subgraph_count pattern g =
  let inj = hom_bruteforce ~injective:true pattern g in
  inj /. automorphism_count pattern

(* Triangle count: hom(K3, G) / 6. *)
let triangles g =
  let k3 = Glql_graph.Generators.complete 3 in
  hom_bruteforce k3 g /. 6.0

(* Rooted hom-count vector for arbitrary patterns: the tree DP when the
   pattern is a tree, otherwise one pinned backtracking count per vertex
   (each pin is independent, so pins run on the domain pool). *)
let rooted_hom_vector_any pattern ~root g =
  if Tree.is_tree pattern then hom_tree_rooted pattern root g
  else begin
    let n = Graph.n_vertices g in
    let out = Array.make n 0.0 in
    Pool.parallel_for ~n (fun v ->
        out.(v) <- hom_bruteforce ~compatible:(fun pv gv -> pv <> root || gv = v) pattern g);
    out
  end

(* Homomorphism profile of G over a pattern list — the "hom count
   embedding" view of slide 27/72.  One pure count per pattern, run on
   the domain pool; entry order follows the pattern list, so the result
   is identical for every pool size. *)
let profile ?(deadline = None) patterns g =
  Glql_util.Trace.with_span
    ~args:[ ("patterns", string_of_int (List.length patterns)) ]
    "hom.profile"
  @@ fun () ->
  (* Warm the CSR memo before fanning out so the per-pattern tree DPs
     share one flat view build instead of racing to create it. *)
  ignore (Graph.csr g);
  (* The per-pattern deadline check makes a request timeout bound the
     profile's wall time: the pool records the raised Deadline_exceeded
     and re-raises it in the caller after the remaining (cheap, also
     cancelled) patterns drain. *)
  Pool.parallel_map_array
    (fun p ->
      Glql_util.Clock.check deadline;
      hom p g)
    (Array.of_list patterns)

(* Are G and H indistinguishable by hom counts from all the patterns?
   Both profiles are counted in one parallel sweep over the patterns. *)
let equal_profiles patterns g h =
  let agree = Pool.parallel_map_array (fun p -> hom p g = hom p h) (Array.of_list patterns) in
  Array.for_all (fun b -> b) agree
