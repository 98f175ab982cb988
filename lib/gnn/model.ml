(* A GNN model: a stack of message-passing layers, an optional global
   readout (slide 14: F = sigma(sum_v F(L)_v W + b) is Readout Sum + a
   head), and an optional MLP head.

   - Vertex embedding xi : G -> (V -> R^d): layers then head per vertex.
   - Graph embedding  xi : G -> R^d: layers, readout pooling, then head.

   Forward/backward is provided for both, so the same model type serves
   random-weight separation experiments (E1) and ERM training (E9/E10). *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param
module Activation = Glql_nn.Activation

type readout = RSum | RMean | RMax

type t = {
  layers : Layer.t list;
  readout : readout option;
  head : Mlp.t option;
}

let create ?readout ?head layers = { layers; readout; head }

(* Shadow model for per-graph parallel training: every parameter shares
   its weights with [t] but owns a private gradient buffer, so one
   forward/backward per domain runs race-free.  [params] of a shadow
   aligns index-wise with [params] of the original, which is what the
   deterministic gradient merge in Erm relies on. *)
let shadow t =
  { t with layers = List.map Layer.shadow t.layers; head = Option.map Mlp.shadow t.head }

let params t =
  List.concat_map Layer.params t.layers
  @ (match t.head with Some mlp -> Mlp.params mlp | None -> [])

let initial_features g =
  Mat.of_rows (Array.to_list (Array.init (Graph.n_vertices g) (fun v -> Graph.label g v)))

type cache = {
  layer_caches : Layer.cache list;
  final_h : Mat.t;
  pool_arg : int array option;  (* argmax vertices for RMax *)
  head_cache : Mlp.cache option;
}

let pool readout h =
  let n = Mat.rows h and d = Mat.cols h in
  match readout with
  | RSum ->
      let v = Vec.zeros d in
      for i = 0 to n - 1 do
        Vec.add_inplace ~into:v (Mat.row h i)
      done;
      (v, None)
  | RMean ->
      let v = Vec.zeros d in
      for i = 0 to n - 1 do
        Vec.add_inplace ~into:v (Mat.row h i)
      done;
      (Vec.scale (1.0 /. float_of_int (max 1 n)) v, None)
  | RMax ->
      let v = Vec.create d neg_infinity in
      let arg = Array.make d (-1) in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          if Mat.get h i j > v.(j) then begin
            v.(j) <- Mat.get h i j;
            arg.(j) <- i
          end
        done
      done;
      if n = 0 then (Vec.zeros d, Some arg) else (v, Some arg)

let run_layers t g =
  let h = ref (initial_features g) in
  let caches = ref [] in
  List.iter
    (fun layer ->
      let y, c = Layer.forward_cached g layer !h in
      caches := c :: !caches;
      h := y)
    t.layers;
  (!h, List.rev !caches)

(* Vertex embeddings: n x d matrix (head applied per row when present). *)
let vertex_embeddings t g =
  let h, _ = run_layers t g in
  match t.head with Some mlp -> Mlp.forward mlp h | None -> h

(* Graph embedding: pooled vector (head applied when present). *)
let graph_embedding t g =
  let h, _ = run_layers t g in
  match t.readout with
  | None -> invalid_arg "Model.graph_embedding: model has no readout"
  | Some r ->
      let v, _ = pool r h in
      (match t.head with Some mlp -> Mlp.apply_vec mlp v | None -> v)

(* --- training-mode forwards with caches ------------------------------- *)

let forward_vertices_cached t g =
  let h, layer_caches = run_layers t g in
  match t.head with
  | Some mlp ->
      let y, hc = Mlp.forward_cached mlp h in
      (y, { layer_caches; final_h = h; pool_arg = None; head_cache = Some hc })
  | None -> (h, { layer_caches; final_h = h; pool_arg = None; head_cache = None })

let forward_graph_cached t g =
  let h, layer_caches = run_layers t g in
  match t.readout with
  | None -> invalid_arg "Model.forward_graph_cached: model has no readout"
  | Some r ->
      let v, arg = pool r h in
      (match t.head with
      | Some mlp ->
          let y, hc = Mlp.forward_cached mlp (Mat.of_rows [ v ]) in
          (Mat.row y 0, { layer_caches; final_h = h; pool_arg = arg; head_cache = Some hc })
      | None -> (v, { layer_caches; final_h = h; pool_arg = arg; head_cache = None }))

let backward_layers t g caches dh =
  let pairs = List.combine t.layers caches in
  List.fold_right (fun (layer, c) d -> Layer.backward g layer c ~dout:d) pairs dh

(* Backward for vertex-level outputs: [dout] is n x out_dim. *)
let backward_vertices t g cache ~dout =
  let dh =
    match (t.head, cache.head_cache) with
    | Some mlp, Some hc -> Mlp.backward mlp hc ~dout
    | None, _ -> dout
    | Some _, None -> assert false
  in
  ignore (backward_layers t g cache.layer_caches dh)

(* Backward for graph-level outputs: [dout] is a vector. *)
let backward_graph t g cache ~dout =
  let dpooled =
    match (t.head, cache.head_cache) with
    | Some mlp, Some hc -> Mat.row (Mlp.backward mlp hc ~dout:(Mat.of_rows [ dout ])) 0
    | None, _ -> dout
    | Some _, None -> assert false
  in
  let n = Mat.rows cache.final_h and d = Mat.cols cache.final_h in
  let dh = Mat.zeros n d in
  (match t.readout with
  | None -> assert false
  | Some RSum ->
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          Mat.set dh i j dpooled.(j)
        done
      done
  | Some RMean ->
      let inv = 1.0 /. float_of_int (max 1 n) in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          Mat.set dh i j (inv *. dpooled.(j))
        done
      done
  | Some RMax ->
      (match cache.pool_arg with
      | Some arg ->
          for j = 0 to d - 1 do
            if arg.(j) >= 0 then Mat.set dh arg.(j) j dpooled.(j)
          done
      | None -> assert false));
  ignore (backward_layers t g cache.layer_caches dh)

(* --- stock architectures ---------------------------------------------- *)

let gin_classifier rng ~in_dim ~width ~depth ~n_classes =
  let layers =
    List.init depth (fun i ->
        Layer.gin rng ~din:(if i = 0 then in_dim else width) ~dout:width ~hidden:width ~eps:0.0)
  in
  let head =
    Mlp.create rng ~sizes:[ width; width; n_classes ] ~act:Activation.Relu
      ~out_act:Activation.Identity
  in
  create ~readout:RSum ~head layers

let gcn_node_classifier rng ~in_dim ~width ~depth ~n_classes =
  let layers =
    List.init depth (fun i ->
        Layer.gcn rng ~din:(if i = 0 then in_dim else width) ~dout:width ~act:Activation.Relu)
  in
  let head =
    Mlp.create rng ~sizes:[ width; n_classes ] ~act:Activation.Identity
      ~out_act:Activation.Identity
  in
  create ~head layers
