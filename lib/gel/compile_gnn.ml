(* Casting GNN architectures as MPNN(Omega, Theta) expressions
   (slides 40, 48, 63: "their layer definitions translate naturally into
   expressions in our language").

   Each architecture is described by an explicit weight specification; from
   it we produce (a) the MPNN expression and (b) a direct tensor-level
   forward pass.  The two must agree to numerical precision — a property
   test the suite checks — which is what "GNN X is an MPNN" means
   concretely. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Graph = Glql_graph.Graph
module Activation = Glql_nn.Activation
module Mlp = Glql_nn.Mlp
module B = Builder

(* --- GNN 101 (slide 13) ------------------------------------------------ *)

type gnn101_layer = { w1 : Mat.t; w2 : Mat.t; b : Vec.t; act : Activation.t }

type gnn101 = {
  in_dim : int;
  layers : gnn101_layer list;
  readout_w : Mat.t;
  readout_b : Vec.t;
  readout_act : Activation.t;
}

let random_gnn101 rng ~in_dim ~width ~depth ~out_dim =
  let layer din =
    {
      w1 = Mat.glorot rng din width;
      w2 = Mat.glorot rng din width;
      b = Vec.gaussian rng width ~stddev:0.1;
      act = Activation.Sigmoid;
    }
  in
  {
    in_dim;
    layers = List.init depth (fun i -> layer (if i = 0 then in_dim else width));
    readout_w = Mat.glorot rng width out_dim;
    readout_b = Vec.zeros out_dim;
    readout_act = Activation.Identity;
  }

(* Vertex expression: F(t)(x) = act(F(t-1)(x) W1 + sum_{y ~ x} F(t-1)(y) W2 + b). *)
let gnn101_vertex_expr spec =
  Glql_util.Trace.with_span "compile.gnn" @@ fun () ->
  let x = B.x1 and y = B.x2 in
  let layer_expr (prev_x, prev_y) (l : gnn101_layer) =
    (* Both orientations are built so that the roles of x1/x2 swap at each
       nesting level, staying inside the two-variable fragment. *)
    let step ~self ~other ~sv ~ov =
      let summed = B.agg_neighbors (Agg.sum (B.root_dim other)) ~x:sv ~y:ov other in
      Expr.Apply
        ( Func.activation l.act (Vec.dim l.b),
          [ Expr.Apply (Func.linear_multi [ l.w1; l.w2 ] l.b, [ self; summed ]) ] )
    in
    (step ~self:prev_x ~other:prev_y ~sv:x ~ov:y, step ~self:prev_y ~other:prev_x ~sv:y ~ov:x)
  in
  let init_x = B.labels ~dim:spec.in_dim x and init_y = B.labels ~dim:spec.in_dim y in
  let final_x, _ = List.fold_left layer_expr (init_x, init_y) spec.layers in
  final_x

(* Graph expression: readout = act(sum_v F(L)(v) W + b) (slide 14). *)
let gnn101_graph_expr spec =
  let vexpr = gnn101_vertex_expr spec in
  let pooled = B.readout_sum ~x:B.x1 vexpr in
  Expr.Apply
    ( Func.activation spec.readout_act (Vec.dim spec.readout_b),
      [ Expr.Apply (Func.linear spec.readout_w spec.readout_b, [ pooled ]) ] )

(* Tensor-level reference forward (one row per vertex). *)
let gnn101_vertex_forward spec g =
  let n = Graph.n_vertices g in
  let h = ref (Mat.of_rows (Array.to_list (Array.init n (fun v -> Graph.label g v)))) in
  List.iter
    (fun (l : gnn101_layer) ->
      let ah = Glql_gnn.Propagate.sum_neighbors g !h in
      let z = Mat.add (Mat.mul !h l.w1) (Mat.mul ah l.w2) in
      for i = 0 to n - 1 do
        for j = 0 to Mat.cols z - 1 do
          Mat.set z i j (Mat.get z i j +. l.b.(j))
        done
      done;
      h := Activation.apply_mat l.act z)
    spec.layers;
  !h

let gnn101_graph_forward spec g =
  let h = gnn101_vertex_forward spec g in
  let pooled = Vec.zeros (Mat.cols h) in
  for i = 0 to Mat.rows h - 1 do
    Vec.add_inplace ~into:pooled (Mat.row h i)
  done;
  Activation.apply_vec spec.readout_act (Vec.add (Mat.vec_mul pooled spec.readout_w) spec.readout_b)

(* --- GIN (slide 34) ----------------------------------------------------- *)

type gin_layer = { eps : float; mlp : Mlp.t }

type gin = { gin_in_dim : int; gin_layers : gin_layer list }

let random_gin rng ~in_dim ~width ~depth =
  {
    gin_in_dim = in_dim;
    gin_layers =
      List.init depth (fun i ->
          let din = if i = 0 then in_dim else width in
          {
            eps = 0.1;
            mlp =
              Mlp.create rng ~sizes:[ din; width; width ] ~act:Activation.Relu
                ~out_act:Activation.Tanh;
          });
  }

(* GIN layer: h'(x) = MLP((1 + eps) h(x) + sum_{y~x} h(y)). *)
let gin_vertex_expr spec =
  Glql_util.Trace.with_span "compile.gnn" @@ fun () ->
  let x = B.x1 and y = B.x2 in
  let layer_expr (prev_x, prev_y) (l : gin_layer) =
    let step ~self ~other ~sv ~ov =
      let d = B.root_dim self in
      let summed = B.agg_neighbors (Agg.sum d) ~x:sv ~y:ov other in
      let combined = B.add (B.scale (1.0 +. l.eps) self) summed in
      Expr.Apply (Func.mlp l.mlp, [ combined ])
    in
    (step ~self:prev_x ~other:prev_y ~sv:x ~ov:y, step ~self:prev_y ~other:prev_x ~sv:y ~ov:x)
  in
  let init_x = B.labels ~dim:spec.gin_in_dim x and init_y = B.labels ~dim:spec.gin_in_dim y in
  fst (List.fold_left layer_expr (init_x, init_y) spec.gin_layers)

let gin_vertex_forward spec g =
  let n = Graph.n_vertices g in
  let h = ref (Mat.of_rows (Array.to_list (Array.init n (fun v -> Graph.label g v)))) in
  List.iter
    (fun (l : gin_layer) ->
      let s = Mat.add (Mat.scale (1.0 +. l.eps) !h) (Glql_gnn.Propagate.sum_neighbors g !h) in
      h := Mlp.forward l.mlp s)
    spec.gin_layers;
  !h

(* --- GCN (slide 38, Kipf & Welling) -------------------------------------- *)

type gcn_layer = { gw : Mat.t; gact : Activation.t }

type gcn = { gcn_in_dim : int; gcn_layers : gcn_layer list }

let random_gcn rng ~in_dim ~width ~depth =
  {
    gcn_in_dim = in_dim;
    gcn_layers =
      List.init depth (fun i ->
          { gw = Mat.glorot rng (if i = 0 then in_dim else width) width; gact = Activation.Tanh });
  }

(* GCN needs 1/sqrt(deg + 1): deg is itself an MPNN aggregation, and the
   normalisation is function application — the architecture stays inside
   MPNN(Omega, Theta) (slide 48). *)
let inv_sqrt1p = Func.scalar "invsqrt1p" (fun d -> 1.0 /. sqrt (d +. 1.0))

let gcn_vertex_expr spec =
  Glql_util.Trace.with_span "compile.gnn" @@ fun () ->
  let x = B.x1 and y = B.x2 in
  let layer_expr (prev_x, prev_y) (l : gcn_layer) =
    let step ~self ~other ~sv ~ov =
      let d = B.root_dim self in
      let c v vo = Expr.Apply (inv_sqrt1p, [ B.degree ~x:v ~y:vo ]) in
      (* message from each neighbour: h(y) * c(y) *)
      let msg = Expr.Apply (Func.scale_by d, [ other; c ov sv ]) in
      let summed = B.agg_neighbors (Agg.sum d) ~x:sv ~y:ov msg in
      (* self loop contributes c(x)^2 h(x); neighbour sum is scaled by c(x) *)
      let cx = c sv ov in
      let self_term = Expr.Apply (Func.scale_by d, [ Expr.Apply (Func.scale_by d, [ self; cx ]); cx ]) in
      let nb_term = Expr.Apply (Func.scale_by d, [ summed; cx ]) in
      let z = Expr.Apply (Func.linear l.gw (Vec.zeros (Mat.cols l.gw)), [ B.add self_term nb_term ]) in
      Expr.Apply (Func.activation l.gact (Mat.cols l.gw), [ z ])
    in
    (step ~self:prev_x ~other:prev_y ~sv:x ~ov:y, step ~self:prev_y ~other:prev_x ~sv:y ~ov:x)
  in
  let init_x = B.labels ~dim:spec.gcn_in_dim x and init_y = B.labels ~dim:spec.gcn_in_dim y in
  fst (List.fold_left layer_expr (init_x, init_y) spec.gcn_layers)

let gcn_vertex_forward spec g =
  let n = Graph.n_vertices g in
  let h = ref (Mat.of_rows (Array.to_list (Array.init n (fun v -> Graph.label g v)))) in
  List.iter
    (fun (l : gcn_layer) ->
      let p = Glql_gnn.Propagate.gcn_neighbors g !h in
      h := Activation.apply_mat l.gact (Mat.mul p l.gw))
    spec.gcn_layers;
  !h

(* --- GraphSAGE (slide 34), with a choice of aggregator ------------------- *)

type sage_layer = { wself : Mat.t; wnb : Mat.t; sb : Vec.t; sact : Activation.t }

type sage_agg = Sage_sum | Sage_mean | Sage_max

type sage = { sage_in_dim : int; sage_agg : sage_agg; sage_layers : sage_layer list }

let random_sage rng ~in_dim ~width ~depth ~agg =
  {
    sage_in_dim = in_dim;
    sage_agg = agg;
    sage_layers =
      List.init depth (fun i ->
          let din = if i = 0 then in_dim else width in
          {
            wself = Mat.glorot rng din width;
            wnb = Mat.glorot rng din width;
            sb = Vec.gaussian rng width ~stddev:0.1;
            sact = Activation.Sigmoid;
          });
  }

let sage_aggregator agg d =
  match agg with Sage_sum -> Agg.sum d | Sage_mean -> Agg.mean d | Sage_max -> Agg.max d

let sage_vertex_expr spec =
  Glql_util.Trace.with_span "compile.gnn" @@ fun () ->
  let x = B.x1 and y = B.x2 in
  let layer_expr (prev_x, prev_y) (l : sage_layer) =
    let step ~self ~other ~sv ~ov =
      let d = B.root_dim self in
      let agged = B.agg_neighbors (sage_aggregator spec.sage_agg d) ~x:sv ~y:ov other in
      Expr.Apply
        ( Func.activation l.sact (Vec.dim l.sb),
          [ Expr.Apply (Func.linear_multi [ l.wself; l.wnb ] l.sb, [ self; agged ]) ] )
    in
    (step ~self:prev_x ~other:prev_y ~sv:x ~ov:y, step ~self:prev_y ~other:prev_x ~sv:y ~ov:x)
  in
  let init_x = B.labels ~dim:spec.sage_in_dim x and init_y = B.labels ~dim:spec.sage_in_dim y in
  fst (List.fold_left layer_expr (init_x, init_y) spec.sage_layers)

let sage_vertex_forward spec g =
  let n = Graph.n_vertices g in
  let h = ref (Mat.of_rows (Array.to_list (Array.init n (fun v -> Graph.label g v)))) in
  List.iter
    (fun (l : sage_layer) ->
      let agged =
        match spec.sage_agg with
        | Sage_sum -> Glql_gnn.Propagate.sum_neighbors g !h
        | Sage_mean -> Glql_gnn.Propagate.mean_neighbors g !h
        | Sage_max -> fst (Glql_gnn.Propagate.max_neighbors g !h)
      in
      let z = Mat.add (Mat.mul !h l.wself) (Mat.mul agged l.wnb) in
      for i = 0 to n - 1 do
        for j = 0 to Mat.cols z - 1 do
          Mat.set z i j (Mat.get z i j +. l.sb.(j))
        done
      done;
      h := Activation.apply_mat l.sact z)
    spec.sage_layers;
  !h

(* --- GAT (slide 34): attention as two MPNN aggregations ------------------ *)

type gat_layer = { gat_w : Mat.t; a_src : Vec.t; a_dst : Vec.t }

type gat = { gat_in_dim : int; gat_layers : gat_layer list }

let random_gat rng ~in_dim ~width ~depth =
  {
    gat_in_dim = in_dim;
    gat_layers =
      List.init depth (fun i ->
          let din = if i = 0 then in_dim else width in
          {
            gat_w = Mat.glorot rng din width;
            a_src = Vec.gaussian rng width ~stddev:0.5;
            a_dst = Vec.gaussian rng width ~stddev:0.5;
          });
  }

let leaky = Func.scalar "leaky-relu" (fun v -> if v >= 0.0 then v else 0.2 *. v)

let exp_f = Func.scalar "exp" exp

(* Softmax attention = (sum of exp-weighted messages) / (sum of exp
   weights): both sums are neighbourhood aggregations, the quotient is
   function application — so GAT lives in MPNN(Omega, Theta) too. *)
let gat_vertex_expr spec =
  Glql_util.Trace.with_span "compile.gnn" @@ fun () ->
  let x = B.x1 and y = B.x2 in
  let layer_expr (prev_x, prev_y) (l : gat_layer) =
    let step ~self ~other ~sv ~ov =
      let dout = Mat.cols l.gat_w in
      let hw e = Expr.Apply (Func.linear l.gat_w (Vec.zeros dout), [ e ]) in
      let dot a e = Expr.Apply (Func.linear (Mat.init dout 1 (fun i _ -> a.(i))) [| 0.0 |], [ e ]) in
      let score = B.add (dot l.a_src (hw other)) (dot l.a_dst (hw self)) in
      let weight = Expr.Apply (exp_f, [ Expr.Apply (leaky, [ score ]) ]) in
      let weighted_msg = Expr.Apply (Func.scale_by dout, [ hw other; weight ]) in
      let num = B.agg_neighbors (Agg.sum dout) ~x:sv ~y:ov weighted_msg in
      let den = B.agg_neighbors (Agg.sum 1) ~x:sv ~y:ov weight in
      Expr.Apply (Func.divide_by dout, [ num; den ])
    in
    (step ~self:prev_x ~other:prev_y ~sv:x ~ov:y, step ~self:prev_y ~other:prev_x ~sv:y ~ov:x)
  in
  let init_x = B.labels ~dim:spec.gat_in_dim x and init_y = B.labels ~dim:spec.gat_in_dim y in
  fst (List.fold_left layer_expr (init_x, init_y) spec.gat_layers)

let gat_vertex_forward spec g =
  let n = Graph.n_vertices g in
  let h = ref (Mat.of_rows (Array.to_list (Array.init n (fun v -> Graph.label g v)))) in
  List.iter
    (fun (l : gat_layer) ->
      let hw = Mat.mul !h l.gat_w in
      let d = Mat.cols hw in
      let src = Array.init n (fun v -> Vec.dot (Mat.row hw v) l.a_src) in
      let dst = Array.init n (fun v -> Vec.dot (Mat.row hw v) l.a_dst) in
      let lk v = if v >= 0.0 then v else 0.2 *. v in
      let out = Mat.zeros n d in
      for v = 0 to n - 1 do
        let nb = Graph.neighbors g v in
        let weights = Array.map (fun u -> exp (lk (src.(u) +. dst.(v)))) nb in
        let z = Array.fold_left ( +. ) 0.0 weights in
        if z > 0.0 then
          Array.iteri
            (fun i u ->
              for j = 0 to d - 1 do
                Mat.set out v j (Mat.get out v j +. (weights.(i) /. z *. Mat.get hw u j))
              done)
            nb
      done;
      h := out)
    spec.gat_layers;
  !h
