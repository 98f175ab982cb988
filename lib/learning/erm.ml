(* Empirical risk minimisation (slides 19-20): pick the best hypothesis
   from a GNN hypothesis class by full-batch gradient descent on a loss.

   Three trainers cover the three embedding kinds: graph classification,
   semi-supervised node classification, and a head over fixed 2-vertex
   features for link prediction; plus a scalar graph regressor for the
   approximation experiment (E9).

   The per-graph trainers run each minibatch graph's forward/backward on
   its own domain via the pool: graph t accumulates into its own shadow
   of the model (shared weights, private gradients), and after the sweep
   the shadow gradients and losses are folded into the real parameters
   strictly in minibatch index order.  Gradients therefore see exactly
   the same sequence of float additions for every pool size, and
   training is bit-identical to the sequential run. *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Model = Glql_gnn.Model
module Loss = Glql_nn.Loss
module Optim = Glql_nn.Optim
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param
module Pool = Glql_util.Pool
module Clock = Glql_util.Clock

type history = { losses : float list; train_metric : float; test_metric : float }

(* Per-graph gradient accumulation state for one trainer call: one shadow
   model (and its params, aligned with the real params) per minibatch
   slot, plus that slot's loss. *)
type grad_slots = {
  slot_models : Model.t array;
  slot_params : Param.t list array;
  slot_losses : float array;
}

let make_slots model k =
  let slot_models = Array.init k (fun _ -> Model.shadow model) in
  {
    slot_models;
    slot_params = Array.map Model.params slot_models;
    slot_losses = Array.make k 0.0;
  }

(* Fold the shadows into [params] in index order and return the summed
   loss; re-zeroes the shadow gradients for the next epoch. *)
let merge_slots slots params =
  let total = ref 0.0 in
  Array.iteri
    (fun t sparams ->
      total := !total +. slots.slot_losses.(t);
      List.iter2
        (fun (p : Param.t) (s : Param.t) ->
          Mat.add_inplace ~into:p.Param.grad s.Param.grad;
          Mat.fill s.Param.grad 0.0)
        params sparams)
    slots.slot_params;
  !total

(* --- graph classification ------------------------------------------------ *)

let graph_logits model g = Model.graph_embedding model g

let eval_graph_classifier model (ds : Dataset.graph_classification) indices =
  match indices with
  | [] -> 0.0
  | _ ->
      let idxs = Array.of_list indices in
      let correct =
        Pool.parallel_reduce ~n:(Array.length idxs) ~init:0
          ~map:(fun t ->
            let i = idxs.(t) in
            let logits = graph_logits model ds.Dataset.graphs.(i) in
            if Vec.argmax logits = ds.Dataset.gc_labels.(i) then 1 else 0)
          ~combine:( + )
      in
      float_of_int correct /. float_of_int (Array.length idxs)

let train_graph_classifier ?(epochs = 60) ?(lr = 0.01) model (ds : Dataset.graph_classification)
    ~train_indices ~test_indices =
  let opt = Optim.adam ~lr () in
  let params = Model.params model in
  let idxs = Array.of_list train_indices in
  let k = Array.length idxs in
  let slots = make_slots model k in
  let losses = ref [] in
  for _epoch = 1 to epochs do
    Pool.parallel_for ~n:k (fun t ->
        let i = idxs.(t) in
        let g = ds.Dataset.graphs.(i) in
        let sh = slots.slot_models.(t) in
        let logits, cache = Model.forward_graph_cached sh g in
        let loss, dlogits =
          Loss.softmax_cross_entropy ~logits:(Mat.of_rows [ logits ])
            ~labels:[| ds.Dataset.gc_labels.(i) |]
        in
        slots.slot_losses.(t) <- loss;
        Model.backward_graph sh g cache ~dout:(Mat.row dlogits 0));
    let total = merge_slots slots params in
    Optim.step opt params;
    losses := (total /. float_of_int (max 1 k)) :: !losses
  done;
  {
    losses = List.rev !losses;
    train_metric = eval_graph_classifier model ds train_indices;
    test_metric = eval_graph_classifier model ds test_indices;
  }

(* --- node classification -------------------------------------------------- *)

let masked_cross_entropy ~logits ~labels ~mask =
  let rows = Mat.rows logits in
  let grad = Mat.zeros rows (Mat.cols logits) in
  let loss = ref 0.0 in
  let count = ref 0 in
  for i = 0 to rows - 1 do
    if mask.(i) then incr count
  done;
  let inv_n = 1.0 /. float_of_int (max 1 !count) in
  for i = 0 to rows - 1 do
    if mask.(i) then begin
      let p = Vec.softmax (Mat.row logits i) in
      let y = labels.(i) in
      loss := !loss -. log (Float.max 1e-12 p.(y));
      for j = 0 to Array.length p - 1 do
        let ind = if j = y then 1.0 else 0.0 in
        Mat.set grad i j ((p.(j) -. ind) *. inv_n)
      done
    end
  done;
  (!loss *. inv_n, grad)

let node_accuracy logits labels mask ~value =
  let n = Mat.rows logits in
  let correct = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) = value then begin
      incr total;
      if Vec.argmax (Mat.row logits i) = labels.(i) then incr correct
    end
  done;
  if !total = 0 then 0.0 else float_of_int !correct /. float_of_int !total

let train_node_classifier ?(epochs = 120) ?(lr = 0.02) model (ds : Dataset.node_classification) =
  let opt = Optim.adam ~lr () in
  let params = Model.params model in
  let losses = ref [] in
  let g = ds.Dataset.graph in
  for _epoch = 1 to epochs do
    let logits, cache = Model.forward_vertices_cached model g in
    let loss, dlogits =
      masked_cross_entropy ~logits ~labels:ds.Dataset.nc_labels ~mask:ds.Dataset.train_mask
    in
    Model.backward_vertices model g cache ~dout:dlogits;
    Optim.step opt params;
    losses := loss :: !losses
  done;
  let logits = Model.vertex_embeddings model g in
  {
    losses = List.rev !losses;
    train_metric = node_accuracy logits ds.Dataset.nc_labels ds.Dataset.train_mask ~value:true;
    test_metric = node_accuracy logits ds.Dataset.nc_labels ds.Dataset.train_mask ~value:false;
  }

(* --- link prediction: a head over fixed features ------------------------- *)

(* A binary classifier over fixed (e.g. GEL-computed) feature vectors: the
   "view embedding" pattern of slide 72 — a complex fixed embedding
   followed by a simple learnable head. *)
let train_feature_classifier ?(epochs = 200) ?(lr = 0.05) ?(deadline = None) head ~features
    ~targets ~mask =
  let opt = Optim.adam ~lr () in
  let params = Mlp.params head in
  let losses = ref [] in
  let n = Array.length features in
  let n_train = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
  for _epoch = 1 to epochs do
    (* Epoch counts reach 10k through the server's TRAIN: honour the
       per-request deadline at every epoch boundary like the kernels do,
       so a timed-out fit aborts instead of wedging the worker. *)
    Clock.check deadline;
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      if mask.(i) then begin
        let out, cache = Mlp.forward_cached head (Mat.of_rows [ features.(i) ]) in
        let loss, dlogit = Loss.binary_cross_entropy ~logits:out ~targets:[| targets.(i) |] in
        total := !total +. loss;
        ignore (Mlp.backward head cache ~dout:(Mat.scale (1.0 /. float_of_int (max 1 n_train)) dlogit))
      end
    done;
    Optim.step opt params;
    losses := (!total /. float_of_int (max 1 n_train)) :: !losses
  done;
  let accuracy ~value =
    let correct = ref 0 and total = ref 0 in
    for i = 0 to n - 1 do
      if mask.(i) = value then begin
        incr total;
        let p = (Mlp.apply_vec head features.(i)).(0) in
        let predicted = if p >= 0.0 then 1.0 else 0.0 in
        if predicted = targets.(i) then incr correct
      end
    done;
    if !total = 0 then 0.0 else float_of_int !correct /. float_of_int !total
  in
  {
    losses = List.rev !losses;
    train_metric = accuracy ~value:true;
    test_metric = accuracy ~value:false;
  }

(* A scalar regressor over fixed feature vectors — the regression twin of
   train_feature_classifier, used by the server's model-serving layer for
   graph-mode recipes (one feature row per graph). *)
let train_feature_regressor ?(epochs = 200) ?(lr = 0.05) ?(deadline = None) head ~features
    ~targets ~mask =
  let opt = Optim.adam ~lr () in
  let params = Mlp.params head in
  let losses = ref [] in
  let n = Array.length features in
  let n_train = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
  for _epoch = 1 to epochs do
    Clock.check deadline;
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      if mask.(i) then begin
        let out, cache = Mlp.forward_cached head (Mat.of_rows [ features.(i) ]) in
        let loss, dpred = Loss.mse ~pred:out ~target:(Mat.of_rows [ [| targets.(i) |] ]) in
        total := !total +. loss;
        ignore (Mlp.backward head cache ~dout:(Mat.scale (1.0 /. float_of_int (max 1 n_train)) dpred))
      end
    done;
    Optim.step opt params;
    losses := (!total /. float_of_int (max 1 n_train)) :: !losses
  done;
  let mse ~value =
    let total = ref 0.0 and count = ref 0 in
    for i = 0 to n - 1 do
      if mask.(i) = value then begin
        incr count;
        let d = (Mlp.apply_vec head features.(i)).(0) -. targets.(i) in
        total := !total +. (d *. d)
      end
    done;
    if !count = 0 then 0.0 else !total /. float_of_int !count
  in
  { losses = List.rev !losses; train_metric = mse ~value:true; test_metric = mse ~value:false }

(* --- graph regression (E9) ------------------------------------------------ *)

let regression_mse model (rg : Dataset.regression) indices =
  match indices with
  | [] -> 0.0
  | _ ->
      let idxs = Array.of_list indices in
      let total =
        Pool.parallel_reduce ~n:(Array.length idxs) ~init:0.0
          ~map:(fun t ->
            let i = idxs.(t) in
            let out = (Model.graph_embedding model rg.Dataset.rg_graphs.(i)).(0) in
            let d = out -. rg.Dataset.rg_targets.(i) in
            d *. d)
          ~combine:( +. )
      in
      total /. float_of_int (Array.length idxs)

let train_graph_regressor ?(epochs = 200) ?(lr = 0.005) model (rg : Dataset.regression)
    ~train_indices ~test_indices =
  let opt = Optim.adam ~lr () in
  let params = Model.params model in
  let idxs = Array.of_list train_indices in
  let k = Array.length idxs in
  let slots = make_slots model k in
  let inv_n = 1.0 /. float_of_int (max 1 k) in
  let losses = ref [] in
  for _epoch = 1 to epochs do
    Pool.parallel_for ~n:k (fun t ->
        let i = idxs.(t) in
        let g = rg.Dataset.rg_graphs.(i) in
        let sh = slots.slot_models.(t) in
        let out, cache = Model.forward_graph_cached sh g in
        let target = rg.Dataset.rg_targets.(i) in
        let loss, dout =
          Loss.mse ~pred:(Mat.of_rows [ out ]) ~target:(Mat.of_rows [ [| target |] ])
        in
        slots.slot_losses.(t) <- loss;
        Model.backward_graph sh g cache ~dout:(Vec.scale inv_n (Mat.row dout 0)));
    let total = merge_slots slots params in
    Optim.step opt params;
    losses := (total /. float_of_int (max 1 k)) :: !losses
  done;
  {
    losses = List.rev !losses;
    train_metric = regression_mse model rg train_indices;
    test_metric = regression_mse model rg test_indices;
  }

(* Split 0..n-1 deterministically into train/test index lists. *)
let split rng ~n ~train_fraction =
  let idx = Array.init n (fun i -> i) in
  Glql_util.Rng.shuffle rng idx;
  let cut = int_of_float (train_fraction *. float_of_int n) in
  ( Array.to_list (Array.sub idx 0 cut),
    Array.to_list (Array.sub idx cut (n - cut)) )
