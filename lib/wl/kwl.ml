(* k-dimensional Weisfeiler-Leman (slide 65), in both flavours:

   - Oblivious k-WL: the new colour of a k-tuple records, for each position
     j separately, the multiset over w of the colour of the tuple with
     position j replaced by w.
   - Folklore k-FWL: the new colour records one multiset over w of the
     *vector* of k colours obtained by substituting w into each position.

   Known relation (reproduced by the tests): k-FWL is as strong as
   (k+1)-oblivious-WL, and 1-OWL coincides with colour refinement.

   Tuples of V^k are indexed row-major.  Joint runs share one signature
   interner so tuple colours are comparable across graphs, and refinement
   proceeds in lockstep until the joint partition over all tuples of all
   graphs stabilises. *)

module Sig_hash = Glql_util.Sig_hash
module Graph = Glql_graph.Graph
module Pool = Glql_util.Pool

type variant = Oblivious | Folklore

type result = {
  k : int;
  graphs : Graph.t list;
  stable : int array list;
  rounds : int;
}

(* Colours are packed k-at-a-time into a single int during folklore
   refinement; 20 bits each limits a run to ~1M distinct colours, far above
   anything the corpora here produce. *)
let pack_bits = 20

let pack_limit = 1 lsl pack_bits

let tuple_count n k =
  let rec go acc i = if i = 0 then acc else go (acc * n) (i - 1) in
  go 1 k

(* Decode tuple index into vertex array, most-significant position first. *)
let decode_tuple ~n ~k idx =
  let t = Array.make k 0 in
  let rest = ref idx in
  for pos = k - 1 downto 0 do
    t.(pos) <- !rest mod n;
    rest := !rest / n
  done;
  t

let encode_tuple ~n t = Array.fold_left (fun acc v -> (acc * n) + v) 0 t

(* Strides for substituting position j of a tuple index. *)
let strides ~n ~k =
  let s = Array.make k 1 in
  for pos = k - 2 downto 0 do
    s.(pos) <- s.(pos + 1) * n
  done;
  s

(* Atomic type (initial colour) of a tuple: per-position label classes plus
   the equality and adjacency pattern among positions (slide 65: the
   "isomorphism type" of the tuple). *)
let atomic_key csr label_color t =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'A';
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int label_color.(v));
      Buffer.add_char buf ',')
    t;
  let k = Array.length t in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Buffer.add_char buf (if t.(i) = t.(j) then '=' else '.');
      Buffer.add_char buf (if Graph.Csr.has_edge csr t.(i) t.(j) then 'E' else '-')
    done
  done;
  Buffer.contents buf

let initial_colors interner label_interner g k =
  let n = Graph.n_vertices g in
  let csr = Graph.csr g in
  let label_color =
    Array.init n (fun v ->
        Sig_hash.Interner.intern label_interner (Sig_hash.of_float_vector (Graph.label g v)))
  in
  Array.init (tuple_count n k) (fun idx ->
      Sig_hash.Interner.intern interner (atomic_key csr label_color (decode_tuple ~n ~k idx)))

(* Each refinement runs in two phases, mirroring [Color_refinement]: the
   key strings are built in parallel over tuple indices (pure), then
   interned sequentially in increasing index order — the exact call
   sequence the one-phase implementation made, so interned ids (and
   hence colourings) are identical for every pool size. A round costs
   O(n^(k+1)), so for k >= 2 the deadline is also checked every 1,024
   tuple indices inside it; a check only raises, so colours never depend
   on it. *)
let refine_graph ~deadline interner variant g k colors =
  let n = Graph.n_vertices g in
  let csr = Graph.csr g in
  let adjacency = csr.Graph.Csr.adjacency and coffsets = csr.Graph.Csr.offsets in
  if k = 1 then (
    (* For k = 1 the substitution scheme would aggregate over *all*
       vertices and learn nothing; both variants are defined to be colour
       refinement (slide 65's convention rho(CR) ⊇ rho(1-WL)). *)
    let keys = Array.make n "" in
    Pool.parallel_for ~n (fun v ->
        let row = coffsets.(v) in
        let deg = coffsets.(v + 1) - row in
        let nb = Array.make deg 0 in
        for j = 0 to deg - 1 do
          nb.(j) <- colors.(adjacency.(row + j))
        done;
        keys.(v) <- string_of_int colors.(v) ^ "|" ^ Sig_hash.of_int_multiset nb);
    let out = Array.make n 0 in
    for v = 0 to n - 1 do
      out.(v) <- Sig_hash.Interner.intern interner keys.(v)
    done;
    out)
  else
    let st = strides ~n ~k in
    let count = tuple_count n k in
    let keys = Array.make count "" in
    Pool.parallel_for ~n:count (fun idx ->
        if idx land 1023 = 0 then Glql_util.Clock.check deadline;
        let t = decode_tuple ~n ~k idx in
        let buf = Buffer.create 64 in
        Buffer.add_string buf (string_of_int colors.(idx));
        Buffer.add_char buf '|';
        (match variant with
        | Oblivious ->
            (* Per-position multisets. *)
            for j = 0 to k - 1 do
              let base = idx - (t.(j) * st.(j)) in
              let ms = Array.init n (fun w -> colors.(base + (w * st.(j)))) in
              Buffer.add_string buf (Sig_hash.of_int_multiset ms);
              Buffer.add_char buf '|'
            done
        | Folklore ->
            (* One multiset of k-vectors, packed into ints. *)
            let ms =
              Array.init n (fun w ->
                  let packed = ref 0 in
                  for j = 0 to k - 1 do
                    let c = colors.(idx - (t.(j) * st.(j)) + (w * st.(j))) in
                    if c >= pack_limit then failwith "Kwl: colour space exceeded packing limit";
                    packed := (!packed lsl pack_bits) lor c
                  done;
                  !packed)
            in
            Buffer.add_string buf (Sig_hash.of_int_multiset ms));
        keys.(idx) <- Buffer.contents buf);
    let out = Array.make count 0 in
    for idx = 0 to count - 1 do
      out.(idx) <- Sig_hash.Interner.intern interner keys.(idx)
    done;
    out

let joint_color_count colorings =
  let seen = Hashtbl.create 1024 in
  List.iter (fun colors -> Array.iter (fun c -> Hashtbl.replace seen c ()) colors) colorings;
  Hashtbl.length seen

let run_joint ?max_rounds ?(deadline = None) ~k ~variant graphs =
  if k < 1 then invalid_arg "Kwl.run_joint: k must be >= 1";
  Glql_util.Trace.with_span ~args:[ ("k", string_of_int k) ] "kwl.refine" @@ fun () ->
  let interner = Sig_hash.Interner.create () in
  let label_interner = Sig_hash.Interner.create () in
  let current = ref (List.map (fun g -> initial_colors interner label_interner g k) graphs) in
  let count = ref (joint_color_count !current) in
  let rounds = ref 0 in
  let limit =
    match max_rounds with
    | Some m -> m
    | None -> 1 + List.fold_left (fun acc g -> acc + tuple_count (Graph.n_vertices g) k) 0 graphs
  in
  let continue_ = ref true in
  while !continue_ && !rounds < limit do
    (* Cooperative cancellation: once per round here, and inside each
       round's tuple loop (see [refine_graph]). *)
    Glql_util.Clock.check deadline;
    let next = List.map (fun (g, colors) -> refine_graph ~deadline interner variant g k colors)
        (List.combine graphs !current)
    in
    let count' = joint_color_count next in
    current := next;
    incr rounds;
    if count' = !count then continue_ := false else count := count'
  done;
  { k; graphs; stable = !current; rounds = !rounds }

let stable_colors result = result.stable

(* Rebuild a result from its persisted parts (snapshot decode); shape
   mismatches raise so accessors never see an inconsistent result. *)
let of_parts ~k ~graphs ~stable ~rounds =
  if k < 1 then invalid_arg "Kwl.of_parts: k must be >= 1";
  if rounds < 0 then invalid_arg "Kwl.of_parts: negative round count";
  if List.length stable <> List.length graphs then
    invalid_arg "Kwl.of_parts: stable arity mismatch";
  List.iter2
    (fun colors g ->
      if Array.length colors <> tuple_count (Graph.n_vertices g) k then
        invalid_arg "Kwl.of_parts: colour array is not |V|^k")
    stable graphs;
  { k; graphs; stable; rounds }

let rounds result = result.rounds

let graph_signature colors = Sig_hash.of_int_multiset colors

let equivalent_graphs ~k ~variant g h =
  match (run_joint ~k ~variant [ g; h ]).stable with
  | [ cg; ch ] -> graph_signature cg = graph_signature ch
  | _ -> assert false

(* Colour of the p-tuple [t] (p <= k): pad by repeating the last entry,
   the usual embedding of p-tuples into k-tuples. *)
let tuple_color result graph_index t =
  let g = List.nth result.graphs graph_index in
  let n = Graph.n_vertices g in
  let p = Array.length t in
  if p > result.k then invalid_arg "Kwl.tuple_color: tuple longer than k";
  let padded = Array.init result.k (fun i -> if i < p then t.(i) else t.(p - 1)) in
  (List.nth result.stable graph_index).(encode_tuple ~n padded)

(* Partition a corpus of graphs by k-WL graph colour. *)
let graph_partition ~k ~variant graphs =
  let result = run_joint ~k ~variant graphs in
  let sigs = Array.of_list (List.map graph_signature result.stable) in
  Partition.group ~n:(Array.length sigs) (fun i -> sigs.(i))
