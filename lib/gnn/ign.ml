(* 2-IGNs — invariant graph networks of order 2 (named on slides 34/63;
   Maron et al., ICLR 2019).

   Features live on vertex *pairs*: a channel is an n x n matrix. The
   space of permutation-equivariant linear maps R^{n^2} -> R^{n^2} has
   dimension 15 (one basis operation per partition of the four index
   positions); a layer applies a learnable mixture of the 15 basis
   operations per channel pair, adds the 2 equivariant biases (all
   entries / diagonal only) and a pointwise nonlinearity. The invariant
   readout space R^{n^2} -> R is 2-dimensional (total sum and trace).

   The input encoding of a labelled graph uses channel 0 for the
   adjacency matrix and one diagonal channel per label dimension.
   Sums are normalised by n so values stay comparable across sizes.

   2-IGNs sit between colour refinement and folklore 2-WL in separation
   power — the audit experiment E14 measures exactly where. This module
   is forward-only: the experiments sample random-weight families. *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Rng = Glql_util.Rng
module Activation = Glql_nn.Activation

(* Number of equivariant basis operations. *)
let n_basis = 15

(* Apply basis operation [b] (0-based) to one channel. All sums are
   normalised by n. *)
let basis_op b x =
  let n = Mat.rows x in
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  let row_sum = Array.init n (fun i ->
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. Mat.get x i k
      done;
      !acc *. inv_n)
  in
  let col_sum = Array.init n (fun j ->
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. Mat.get x k j
      done;
      !acc *. inv_n)
  in
  let total = Array.fold_left ( +. ) 0.0 row_sum *. inv_n in
  let trace =
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. Mat.get x k k
    done;
    !acc *. inv_n
  in
  Mat.init n n (fun i j ->
      let diag = if i = j then 1.0 else 0.0 in
      match b with
      | 0 -> Mat.get x i j
      | 1 -> Mat.get x j i
      | 2 -> diag *. Mat.get x i i
      | 3 -> row_sum.(i)
      | 4 -> col_sum.(i)
      | 5 -> row_sum.(j)
      | 6 -> col_sum.(j)
      | 7 -> diag *. row_sum.(i)
      | 8 -> diag *. col_sum.(i)
      | 9 -> Mat.get x i i
      | 10 -> Mat.get x j j
      | 11 -> diag *. total
      | 12 -> total
      | 13 -> trace
      | 14 -> diag *. trace
      | _ -> invalid_arg "Ign.basis_op: basis index out of range")

type layer = {
  weights : float array array array;  (* [basis].[in_channel].[out_channel] *)
  bias_all : float array;             (* per out channel *)
  bias_diag : float array;
  act : Activation.t;
}

type t = { layers : layer list; final_mlp_w : Mat.t; final_mlp_b : Vec.t }

let random_layer rng ~din ~dout ~act =
  let scale = 1.0 /. sqrt (float_of_int (n_basis * din)) in
  {
    weights =
      Array.init n_basis (fun _ ->
          Array.init din (fun _ -> Array.init dout (fun _ -> scale *. Rng.gaussian rng)));
    bias_all = Array.init dout (fun _ -> 0.1 *. Rng.gaussian rng);
    bias_diag = Array.init dout (fun _ -> 0.1 *. Rng.gaussian rng);
    act;
  }

let random rng ~label_dim ~width ~depth ~out_dim =
  let din0 = 1 + label_dim in
  let layers =
    List.init depth (fun i ->
        random_layer rng ~din:(if i = 0 then din0 else width) ~dout:width ~act:Activation.Tanh)
  in
  (* Invariant readout gives 2 features (sum, trace) per channel. *)
  { layers; final_mlp_w = Mat.glorot rng (2 * width) out_dim; final_mlp_b = Vec.zeros out_dim }

(* Input tensor: channel 0 = adjacency, channel 1+c = diagonal one-hot of
   label component c. *)
let encode g =
  let n = Graph.n_vertices g in
  let d = Graph.label_dim g in
  let adj = Mat.init n n (fun i j -> if Graph.has_edge g i j then 1.0 else 0.0) in
  let channels =
    adj
    :: List.init d (fun c ->
           Mat.init n n (fun i j -> if i = j then (Graph.label g i).(c) else 0.0))
  in
  Array.of_list channels

let layer_forward layer channels =
  let n = Mat.rows channels.(0) in
  let din = Array.length channels in
  let dout = Array.length layer.bias_all in
  (* Precompute the 15 basis images of each input channel. *)
  let images = Array.init n_basis (fun b -> Array.map (basis_op b) channels) in
  Array.init dout (fun oc ->
      let out = Mat.create n n layer.bias_all.(oc) in
      for i = 0 to n - 1 do
        Mat.set out i i (Mat.get out i i +. layer.bias_diag.(oc))
      done;
      for b = 0 to n_basis - 1 do
        for ic = 0 to din - 1 do
          let w = layer.weights.(b).(ic).(oc) in
          if w <> 0.0 then Mat.axpy_inplace ~into:out w images.(b).(ic)
        done
      done;
      Activation.apply_mat layer.act out)

(* --- PPGN: provably powerful graph networks --------------------------------

   Adding channel-wise *matrix products* to the 2-IGN toolbox lifts the
   power from colour refinement to folklore 2-WL (Maron et al., NeurIPS
   2019): a block computes P = mlp1(X) * mlp2(X) per channel (normalised
   by n) and re-mixes [X; P] with a third entrywise MLP. The MLPs act on
   the channel vector of each pair (i, j) independently — that
   nonlinearity is what makes the multiset-of-products hash injective
   enough to simulate the 2-FWL refinement with random weights. *)

module Mlp = Glql_nn.Mlp

type ppgn_block = { mlp1 : Mlp.t; mlp2 : Mlp.t; mlp_skip : Mlp.t }

type ppgn = { blocks : ppgn_block list; pfinal_w : Mat.t; pfinal_b : Vec.t }

let random_ppgn rng ~label_dim ~width ~depth ~out_dim =
  (* Channels: adjacency, identity, row- and column-broadcast labels. *)
  let din0 = 2 + (2 * label_dim) in
  let entry_mlp din dout =
    let m =
      Mlp.create rng ~sizes:[ din; 2 * dout; dout ] ~act:Activation.Tanh ~out_act:Activation.Tanh
    in
    (* [Mlp.create] zeroes the biases, which would make every entry map an
       odd function; compositions of odd maps cancel systematically on
       bipartite-type signals, losing separations. Randomise them. *)
    List.iter
      (fun (p : Glql_nn.Param.t) ->
        if Mat.rows p.Glql_nn.Param.data = 1 then
          for j = 0 to Mat.cols p.Glql_nn.Param.data - 1 do
            Mat.set p.Glql_nn.Param.data 0 j (0.3 *. Rng.gaussian rng)
          done)
      (Mlp.params m);
    m
  in
  let blocks =
    List.init depth (fun i ->
        let din = if i = 0 then din0 else width in
        {
          mlp1 = entry_mlp din width;
          mlp2 = entry_mlp din width;
          mlp_skip = entry_mlp (din + width) width;
        })
  in
  { blocks; pfinal_w = Mat.glorot rng (2 * width) out_dim; pfinal_b = Vec.zeros out_dim }

(* Apply an MLP to the channel vector of every (i, j) entry. *)
let entrywise mlp channels =
  let n = Mat.rows channels.(0) in
  let din = Array.length channels in
  let dout = Mlp.out_dim mlp in
  let out = Array.init dout (fun _ -> Mat.zeros n n) in
  let input = Array.make din 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for c = 0 to din - 1 do
        input.(c) <- Mat.get channels.(c) i j
      done;
      let v = Mlp.apply_vec mlp input in
      for c = 0 to dout - 1 do
        Mat.set out.(c) i j v.(c)
      done
    done
  done;
  out

let ppgn_block_forward block channels =
  let n = Mat.rows channels.(0) in
  (* Normalise products by sqrt(n) only: with tanh-bounded factors this
     keeps entries O(sqrt n) while attenuating high-degree walk signals
     as little as possible (1/n per block would push the first CFI-
     distinguishing moment, a degree-9 trace, below float resolution). *)
  let inv = 1.0 /. sqrt (float_of_int (max 1 n)) in
  let m1 = entrywise block.mlp1 channels in
  let m2 = entrywise block.mlp2 channels in
  let prods = Array.init (Array.length m1) (fun c -> Mat.scale inv (Mat.mul m1.(c) m2.(c))) in
  let combined = Array.append channels prods in
  entrywise block.mlp_skip combined

(* PPGN input mirrors the 2-FWL atomic type of each pair (i, j):
   adjacency, the equality pattern (identity channel) and the labels of
   *both* endpoints, broadcast across rows and columns. The broadcasts
   are equivariant images of the diagonal label channels (basis ops 9/10),
   so this stays within the model family — it just spares the network one
   product step. *)
let encode_ppgn g =
  let n = Graph.n_vertices g in
  let d = Graph.label_dim g in
  let adj = Mat.init n n (fun i j -> if Graph.has_edge g i j then 1.0 else 0.0) in
  let id = Mat.identity n in
  let row_labels =
    List.init d (fun c -> Mat.init n n (fun i _ -> (Graph.label g i).(c)))
  in
  let col_labels =
    List.init d (fun c -> Mat.init n n (fun _ j -> (Graph.label g j).(c)))
  in
  Array.of_list (adj :: id :: (row_labels @ col_labels))

let ppgn_graph_embedding t g =
  let channels = ref (encode_ppgn g) in
  List.iter (fun block -> channels := ppgn_block_forward block !channels) t.blocks;
  let n = Graph.n_vertices g in
  let inv_n2 = 1.0 /. float_of_int (max 1 (n * n)) in
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  let feats =
    Array.concat
      (Array.to_list
         (Array.map
            (fun x ->
              let sum = ref 0.0 and trace = ref 0.0 in
              for i = 0 to n - 1 do
                trace := !trace +. Mat.get x i i;
                for j = 0 to n - 1 do
                  sum := !sum +. Mat.get x i j
                done
              done;
              [| !sum *. inv_n2; !trace *. inv_n |])
            !channels))
  in
  Vec.add (Mat.vec_mul feats t.pfinal_w) t.pfinal_b

let graph_embedding t g =
  let channels = ref (encode g) in
  List.iter (fun layer -> channels := layer_forward layer !channels) t.layers;
  let n = Graph.n_vertices g in
  let inv_n2 = 1.0 /. float_of_int (max 1 (n * n)) in
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  let feats =
    Array.concat
      (Array.to_list
         (Array.map
            (fun x ->
              let sum = ref 0.0 and trace = ref 0.0 in
              for i = 0 to n - 1 do
                trace := !trace +. Mat.get x i i;
                for j = 0 to n - 1 do
                  sum := !sum +. Mat.get x i j
                done
              done;
              [| !sum *. inv_n2; !trace *. inv_n |])
            !channels))
  in
  Vec.add (Mat.vec_mul feats t.final_mlp_w) t.final_mlp_b
