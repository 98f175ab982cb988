(** Finite undirected vertex-labelled graphs [G = (V, E, L)] with labels in
    [R^d] (paper, slide 6). Vertices are [0 .. n-1]. The representation is
    immutable from the outside; adjacency lists are sorted and deduplicated. *)

module Vec = Glql_tensor.Vec

(** Flat CSR/SoA view of a graph: structure as two packed int arrays,
    labels as one Bigarray-backed float matrix (row [v] is vertex [v]'s
    label vector). Built lazily once per graph and memoized, so every
    kernel iterating [adjacency.(offsets.(v)) .. offsets.(v+1) - 1]
    shares one build. The arrays are the memoized view itself — treat
    them as read-only. *)
module Csr : sig
  type t = {
    offsets : int array;  (** length [n+1]; row [v] spans [offsets.(v) .. offsets.(v+1) - 1] *)
    adjacency : int array;  (** all sorted neighbour rows, concatenated *)
    degrees : int array;  (** [degrees.(v) = offsets.(v+1) - offsets.(v)] *)
    labels : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t;
  }

  (** Binary-search membership on the flat rows; no bounds validation. *)
  val has_edge : t -> int -> int -> bool
end

type t

(** [create ~n ~edges ~labels] builds a simple undirected graph. Self-loops
    are dropped, parallel edges deduplicated, labels copied. All labels must
    share one dimension. *)
val create : n:int -> edges:(int * int) list -> labels:Vec.t array -> t

(** All-ones 1-dimensional labels (the "no information" labelling). *)
val unlabelled : n:int -> edges:(int * int) list -> t

(** Replace the labelling, keeping the structure. *)
val with_labels : t -> Vec.t array -> t

(** One-hot encode a finite colour alphabet as labels (slide 6). *)
val with_one_hot_labels : t -> int array -> n_colors:int -> t

val n_vertices : t -> int
val n_edges : t -> int

(** Sorted neighbour array of [v]. Do not mutate. *)
val neighbors : t -> int -> int array

val degree : t -> int -> int
val label : t -> int -> Vec.t
val label_dim : t -> int

(** Binary-search membership test; raises on out-of-range vertices. *)
val has_edge : t -> int -> int -> bool

(** Edge list with [u < v], sorted lexicographically. *)
val edges : t -> (int * int) list

(** [mutate g ~add_edges ~del_edges ~set_labels] applies a batched
    structural mutation functionally: the result is a new graph sharing
    every untouched adjacency row and label vector with [g]; only rows
    incident to a changed edge are rebuilt (sorted, deduplicated). Edge
    ops use set semantics (adding a present edge / deleting an absent one
    is a no-op); replacement labels must have dimension [label_dim g].
    The memoized {!csr} view of the result is invalidated and rebuilt
    lazily on first kernel use. Raises [Invalid_argument] on out-of-range
    vertices, self-loops, or a label-dimension mismatch. *)
val mutate :
  t ->
  add_edges:(int * int) list ->
  del_edges:(int * int) list ->
  set_labels:(int * Vec.t) list ->
  t

(** The memoized flat view of [g]; built on first use (a [csr.build]
    trace span), O(1) afterwards. *)
val csr : t -> Csr.t

(** CSR view: [(offsets, adjacency)] where [offsets] has length [n+1]
    and vertex [v]'s sorted neighbours are
    [adjacency.(offsets.(v)) .. adjacency.(offsets.(v+1) - 1)]. The
    packed form the snapshot store serialises. Served from the memoized
    {!csr} view — repeated calls are O(1), and the returned arrays must
    not be mutated. *)
val to_csr : t -> int array * int array

(** Rebuild a graph from a CSR view. Every representation invariant is
    validated — monotone offsets, strictly increasing in-range rows, no
    self-loops, symmetric edges, rectangular labels — and violations
    raise [Invalid_argument], so a hostile snapshot cannot materialise a
    malformed graph. Round-trips [to_csr] bit-identically. *)
val of_csr : n:int -> offsets:int array -> adjacency:int array -> labels:Vec.t array -> t

(** [permute g perm] renames vertex [v] to [perm.(v)]; the result is
    isomorphic to [g] with labels travelling along. *)
val permute : t -> int array -> t

(** Uniformly random permutation of [0 .. n-1]. *)
val random_permutation : Glql_util.Rng.t -> int -> int array

(** Isomorphic copy under a uniformly random renaming (for invariance
    tests, slide 11). *)
val shuffle : Glql_util.Rng.t -> t -> t

val disjoint_union : t -> t -> t

(** Subgraph induced by the given (distinct) vertices, renumbered in array
    order. *)
val induced_subgraph : t -> int array -> t

(** [(k, comp)] where [comp.(v)] is the component id of [v] in [0..k-1]. *)
val connected_components : t -> int * int array

val is_connected : t -> bool

(** Sorted [(degree, count)] pairs. *)
val degree_histogram : t -> (int * int) list

(** Structural equality: same vertex count, adjacency and (approximately)
    the same labels. Not isomorphism. *)
val equal_structure : t -> t -> bool

val to_string : t -> string
