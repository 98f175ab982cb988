(* Finite undirected vertex-labelled graphs G = (V, E, L) with
   L : V -> R^d (slide 6).  Vertices are [0 .. n-1]; adjacency lists are
   sorted and deduplicated so membership tests are binary searches and
   structural equality is meaningful.  Finite label alphabets are handled
   by one-hot encoding (see [with_one_hot_labels]). *)

module Vec = Glql_tensor.Vec

(* Flat CSR/SoA view: the compute core's input format. [offsets] has
   length n+1 and vertex v's sorted neighbours occupy
   [adjacency.(offsets.(v)) .. adjacency.(offsets.(v+1) - 1)]; labels are
   packed row-major into one Bigarray float matrix. Hot kernels (WL
   rounds, propagation, the hom-count tree DP) iterate these flat arrays
   instead of chasing the per-vertex [adj] rows, and the snapshot store
   serialises exactly the [offsets]/[adjacency] pair. *)
module Csr = struct
  type t = {
    offsets : int array;
    adjacency : int array;
    degrees : int array;
    labels : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t;
  }

  (* Binary-search membership on the flat row of [u]; vertices must be in
     range (out-of-range indices fail the array bounds check). *)
  let has_edge c u v =
    let lo = ref c.offsets.(u) and hi = ref c.offsets.(u + 1) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let w = c.adjacency.(mid) in
      if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
    done;
    !found
end

type t = {
  n : int;
  adj : int array array;
  labels : Vec.t array;
  label_dim : int;
  (* Lazily-built flat view, memoized per graph. The graph is immutable
     from the outside, so the memo can only go from None to Some of an
     equal value; a concurrent double-build is benign (last write wins,
     both values are correct). [with_labels] refreshes the label matrix
     but keeps the structural arrays. *)
  mutable csr_memo : Csr.t option;
}

let n_vertices g = g.n

let n_edges g =
  let deg_sum = Array.fold_left (fun acc nb -> acc + Array.length nb) 0 g.adj in
  deg_sum / 2

let neighbors g v = g.adj.(v)

let degree g v = Array.length g.adj.(v)

let label g v = g.labels.(v)

let label_dim g = g.label_dim

let validate_vertex g v name =
  if v < 0 || v >= g.n then invalid_arg (Printf.sprintf "Graph.%s: vertex %d out of range" name v)

let has_edge g u v =
  validate_vertex g u "has_edge";
  validate_vertex g v "has_edge";
  let nb = g.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if nb.(mid) = v then true
      else if nb.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length nb)

let normalize_adjacency n edges =
  let sets = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.create: edge (%d,%d) out of range" u v);
      if u <> v then begin
        sets.(u) <- v :: sets.(u);
        sets.(v) <- u :: sets.(v)
      end)
    edges;
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort compare a;
      (* Deduplicate the sorted list. *)
      let out = ref [] in
      Array.iteri (fun i x -> if i = 0 || a.(i - 1) <> x then out := x :: !out) a;
      Array.of_list (List.rev !out))
    sets

let create ~n ~edges ~labels =
  if Array.length labels <> n then invalid_arg "Graph.create: |labels| <> n";
  let label_dim = if n = 0 then 0 else Vec.dim labels.(0) in
  Array.iter
    (fun l -> if Vec.dim l <> label_dim then invalid_arg "Graph.create: ragged labels")
    labels;
  { n; adj = normalize_adjacency n edges; labels = Array.map Vec.copy labels; label_dim;
    csr_memo = None }

let unlabelled ~n ~edges =
  create ~n ~edges ~labels:(Array.make n [| 1.0 |])

(* Pack a label array into the CSR view's row-major float matrix. *)
let pack_labels n label_dim labels =
  let m = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout n label_dim in
  for v = 0 to n - 1 do
    let lv = labels.(v) in
    for j = 0 to label_dim - 1 do
      Bigarray.Array2.unsafe_set m v j lv.(j)
    done
  done;
  m

let with_labels g labels =
  if Array.length labels <> g.n then invalid_arg "Graph.with_labels: |labels| <> n";
  let label_dim = if g.n = 0 then 0 else Vec.dim labels.(0) in
  Array.iter
    (fun l -> if Vec.dim l <> label_dim then invalid_arg "Graph.with_labels: ragged labels")
    labels;
  let copied = Array.map Vec.copy labels in
  (* The structure is unchanged, so a built flat view stays valid with a
     repacked label matrix; only a relabelling invalidates it. *)
  let csr_memo =
    match g.csr_memo with
    | Some c -> Some { c with Csr.labels = pack_labels g.n label_dim copied }
    | None -> None
  in
  { g with labels = copied; label_dim; csr_memo }

(* One-hot encode a finite colour alphabet (slide 6's "hot-one encoding"). *)
let with_one_hot_labels g colors ~n_colors =
  if Array.length colors <> g.n then invalid_arg "Graph.with_one_hot_labels";
  let labels =
    Array.map
      (fun c ->
        if c < 0 || c >= n_colors then invalid_arg "Graph.with_one_hot_labels: colour out of range";
        Vec.init n_colors (fun j -> if j = c then 1.0 else 0.0))
      colors
  in
  with_labels g labels

(* Build the flat view from the per-vertex rows: one offsets pass, one
   blit per row, labels packed into the float matrix. *)
let build_csr g =
  Glql_util.Trace.with_span
    ~args:[ ("n", string_of_int g.n) ]
    "csr.build"
  @@ fun () ->
  let offsets = Array.make (g.n + 1) 0 in
  for v = 0 to g.n - 1 do
    offsets.(v + 1) <- offsets.(v) + Array.length g.adj.(v)
  done;
  let adjacency = Array.make (max 1 offsets.(g.n)) 0 in
  let adjacency = if offsets.(g.n) = 0 then [||] else adjacency in
  for v = 0 to g.n - 1 do
    Array.blit g.adj.(v) 0 adjacency offsets.(v) (Array.length g.adj.(v))
  done;
  let degrees = Array.init g.n (fun v -> Array.length g.adj.(v)) in
  { Csr.offsets; adjacency; degrees; labels = pack_labels g.n g.label_dim g.labels }

let csr g =
  match g.csr_memo with
  | Some c -> c
  | None ->
      let c = build_csr g in
      g.csr_memo <- Some c;
      c

(* CSR view: [offsets] of length n+1 and the concatenation of all (sorted)
   neighbour lists — the packed form the snapshot store writes to disk.
   Served from the memoized flat view, so repeated calls are O(1); the
   returned arrays are that view and must not be mutated. *)
let to_csr g =
  let c = csr g in
  (c.Csr.offsets, c.Csr.adjacency)

(* Rebuild a graph from a CSR view, validating every representation
   invariant (the input may come from an untrusted snapshot file):
   monotone offsets covering the adjacency array exactly, rows strictly
   increasing (sorted, deduplicated, no self-loop), entries in range, and
   symmetry of the edge relation. Raises [Invalid_argument] otherwise.
   Rows are checked in place on the flat arrays (symmetry by binary
   search on the mirror row), with no intermediate structures built
   before validation passes. *)
let of_csr ~n ~offsets ~adjacency ~labels =
  if n < 0 then invalid_arg "Graph.of_csr: negative vertex count";
  if Array.length offsets <> n + 1 then invalid_arg "Graph.of_csr: |offsets| <> n+1";
  if n > 0 && offsets.(0) <> 0 then invalid_arg "Graph.of_csr: offsets must start at 0";
  for v = 0 to n - 1 do
    if offsets.(v + 1) < offsets.(v) then invalid_arg "Graph.of_csr: offsets not monotone"
  done;
  if (if n = 0 then Array.length adjacency <> 0 else offsets.(n) <> Array.length adjacency)
  then invalid_arg "Graph.of_csr: offsets do not cover the adjacency array";
  if Array.length labels <> n then invalid_arg "Graph.of_csr: |labels| <> n";
  let label_dim = if n = 0 then 0 else Vec.dim labels.(0) in
  Array.iter
    (fun l -> if Vec.dim l <> label_dim then invalid_arg "Graph.of_csr: ragged labels")
    labels;
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    for i = lo to hi - 1 do
      let u = adjacency.(i) in
      if u < 0 || u >= n then invalid_arg "Graph.of_csr: neighbour out of range";
      if u = v then invalid_arg "Graph.of_csr: self-loop";
      if i > lo && adjacency.(i - 1) >= u then
        invalid_arg "Graph.of_csr: row not strictly increasing"
    done
  done;
  (* Symmetry: every (v, u) arc must have its mirror, located by binary
     search on u's flat row (rows are strictly increasing by now). *)
  let mirror u v =
    let lo = ref offsets.(u) and hi = ref offsets.(u + 1) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let w = adjacency.(mid) in
      if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
    done;
    !found
  in
  for v = 0 to n - 1 do
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      if not (mirror adjacency.(i) v) then invalid_arg "Graph.of_csr: asymmetric edge"
    done
  done;
  let adj = Array.init n (fun v -> Array.sub adjacency offsets.(v) (offsets.(v + 1) - offsets.(v))) in
  (* The flat view is left to build lazily on first kernel use rather
     than seeded from the input here: copying the caller's arrays into a
     memo would bill every snapshot restore for views it may never
     touch. *)
  { n; adj; labels = Array.map Vec.copy labels; label_dim; csr_memo = None }

(* Batched functional mutation: returns a new graph that shares every
   untouched adjacency row (and every untouched label vector) with [g];
   only rows incident to an added/deleted edge are rebuilt. Edge ops use
   set semantics — adding a present edge or deleting an absent one is a
   no-op — so callers that validated against an evolving batch state can
   hand over the net delta. The memoized flat view is dropped
   ([csr_memo = None]): this is the CSR invalidate/rebuild path, the next
   kernel use rebuilds it lazily. *)
let mutate g ~add_edges ~del_edges ~set_labels =
  let check_edge (u, v) =
    if u < 0 || u >= g.n || v < 0 || v >= g.n then
      invalid_arg (Printf.sprintf "Graph.mutate: edge (%d,%d) out of range" u v);
    if u = v then invalid_arg (Printf.sprintf "Graph.mutate: self-loop (%d,%d)" u v)
  in
  List.iter check_edge add_edges;
  List.iter check_edge del_edges;
  (* Per touched vertex: neighbours to add and to drop. *)
  let delta : (int, int list ref * int list ref) Hashtbl.t = Hashtbl.create 16 in
  let cell v =
    match Hashtbl.find_opt delta v with
    | Some c -> c
    | None ->
        let c = (ref [], ref []) in
        Hashtbl.add delta v c;
        c
  in
  List.iter
    (fun (u, v) ->
      let au, _ = cell u and av, _ = cell v in
      au := v :: !au;
      av := u :: !av)
    add_edges;
  List.iter
    (fun (u, v) ->
      let _, du = cell u and _, dv = cell v in
      du := v :: !du;
      dv := u :: !dv)
    del_edges;
  let adj = Array.copy g.adj in
  Hashtbl.iter
    (fun v (adds, dels) ->
      let drop = Hashtbl.create 4 in
      List.iter (fun u -> Hashtbl.replace drop u ()) !dels;
      (* Deletions win over additions of the same endpoint only through
         set semantics on the final row: drop first, then union adds
         minus drops. *)
      let kept =
        Array.to_list adj.(v) |> List.filter (fun u -> not (Hashtbl.mem drop u))
      in
      let row = Array.of_list (List.rev_append !adds kept) in
      Array.sort compare row;
      let out = ref [] in
      Array.iteri (fun i x -> if i = 0 || row.(i - 1) <> x then out := x :: !out) row;
      adj.(v) <- Array.of_list (List.rev !out))
    delta;
  let labels =
    if set_labels = [] then g.labels
    else begin
      let labels = Array.copy g.labels in
      List.iter
        (fun (v, l) ->
          validate_vertex g v "mutate";
          if Vec.dim l <> g.label_dim then
            invalid_arg
              (Printf.sprintf "Graph.mutate: label dim %d <> %d" (Vec.dim l) g.label_dim);
          labels.(v) <- Vec.copy l)
        set_labels;
      labels
    end
  in
  { g with adj; labels; csr_memo = None }

let edges g =
  let out = ref [] in
  for u = g.n - 1 downto 0 do
    let nb = g.adj.(u) in
    for i = Array.length nb - 1 downto 0 do
      if u < nb.(i) then out := (u, nb.(i)) :: !out
    done
  done;
  !out

(* Relabel vertices along a permutation: vertex v of g becomes perm.(v).
   Labels travel with the vertices, so the result is isomorphic to g. *)
let permute g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.permute: bad permutation length";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then invalid_arg "Graph.permute: not a permutation";
      seen.(p) <- true)
    perm;
  let labels = Array.make g.n [||] in
  for v = 0 to g.n - 1 do
    labels.(perm.(v)) <- g.labels.(v)
  done;
  let edges = List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges g) in
  create ~n:g.n ~edges ~labels

let random_permutation rng n =
  let perm = Array.init n (fun i -> i) in
  Glql_util.Rng.shuffle rng perm;
  perm

let shuffle rng g = permute g (random_permutation rng g.n)

let disjoint_union g h =
  if g.label_dim <> h.label_dim && g.n > 0 && h.n > 0 then
    invalid_arg "Graph.disjoint_union: label dims differ";
  let n = g.n + h.n in
  let labels = Array.append g.labels h.labels in
  let edges =
    edges g @ List.map (fun (u, v) -> (u + g.n, v + g.n)) (edges h)
  in
  create ~n ~edges ~labels

let induced_subgraph g vs =
  let index = Hashtbl.create (Array.length vs) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let labels = Array.map (fun v -> g.labels.(v)) vs in
  let edges =
    List.filter_map
      (fun (u, v) ->
        match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
        | Some iu, Some iv -> Some (iu, iv)
        | _ -> None)
      (edges g)
  in
  create ~n:(Array.length vs) ~edges ~labels

let connected_components g =
  let comp = Array.make g.n (-1) in
  let next = ref 0 in
  for start = 0 to g.n - 1 do
    if comp.(start) = -1 then begin
      let id = !next in
      incr next;
      let stack = ref [ start ] in
      comp.(start) <- id;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            Array.iter
              (fun u ->
                if comp.(u) = -1 then begin
                  comp.(u) <- id;
                  stack := u :: !stack
                end)
              g.adj.(v)
      done
    end
  done;
  (!next, comp)

let is_connected g = g.n = 0 || fst (connected_components g) = 1

let degree_histogram g =
  let h = Hashtbl.create 16 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    Hashtbl.replace h d (1 + Option.value ~default:0 (Hashtbl.find_opt h d))
  done;
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) h [])

let equal_structure g h =
  g.n = h.n && g.adj = h.adj
  && Array.for_all2 (fun a b -> Vec.equal_approx a b) g.labels h.labels

let to_string g =
  let edge_str =
    edges g |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) |> String.concat " "
  in
  Printf.sprintf "graph(n=%d, m=%d): %s" g.n (n_edges g) edge_str
