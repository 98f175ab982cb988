(* GNN layers over vertex-feature matrices (one row per vertex).

   Gnn101 is the architecture of slide 13:
     F(t) = sigma( F(t-1) W1 + A F(t-1) W2 + 1 b^T ).
   Gcn, Gin and Sage are the classical architectures named on slides 34/48;
   Gat is a single-head attention layer (forward-only: the experiments use
   it for expressivity audits, not training). *)

module Mat = Glql_tensor.Mat
module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Mlp = Glql_nn.Mlp
module Param = Glql_nn.Param
module Activation = Glql_nn.Activation

type agg = Sum | Mean | Max

type t =
  | Gnn101 of { w1 : Param.t; w2 : Param.t; b : Param.t; act : Activation.t }
  | Gcn of { w : Param.t; act : Activation.t }
  | Gin of { eps : float; mlp : Mlp.t }
  | Sage of { agg : agg; wself : Param.t; wnb : Param.t; b : Param.t; act : Activation.t }
  | Gat of { w : Param.t; a_src : Param.t; a_dst : Param.t; act : Activation.t }

type cache =
  | C_gnn101 of { h : Mat.t; ah : Mat.t; z : Mat.t }
  | C_gcn of { p : Mat.t; z : Mat.t }
  | C_gin of { mlp_cache : Mlp.cache }
  | C_sage of { h : Mat.t; agg_h : Mat.t; argmax : int array array option; z : Mat.t }
  | C_none

let gnn101 rng ~din ~dout ~act =
  Gnn101
    {
      w1 = Param.create ~name:"gnn101.w1" (Mat.glorot rng din dout);
      w2 = Param.create ~name:"gnn101.w2" (Mat.glorot rng din dout);
      b = Param.create ~name:"gnn101.b" (Mat.zeros 1 dout);
      act;
    }

let gcn rng ~din ~dout ~act =
  Gcn { w = Param.create ~name:"gcn.w" (Mat.glorot rng din dout); act }

let gin rng ~din ~dout ~hidden ~eps =
  Gin
    {
      eps;
      mlp =
        Mlp.create rng ~sizes:[ din; hidden; dout ] ~act:Activation.Relu
          ~out_act:Activation.Identity;
    }

let sage rng ~din ~dout ~agg ~act =
  Sage
    {
      agg;
      wself = Param.create ~name:"sage.wself" (Mat.glorot rng din dout);
      wnb = Param.create ~name:"sage.wnb" (Mat.glorot rng din dout);
      b = Param.create ~name:"sage.b" (Mat.zeros 1 dout);
      act;
    }

let gat rng ~din ~dout ~act =
  Gat
    {
      w = Param.create ~name:"gat.w" (Mat.glorot rng din dout);
      a_src = Param.create ~name:"gat.a_src" (Mat.glorot rng 1 dout);
      a_dst = Param.create ~name:"gat.a_dst" (Mat.glorot rng 1 dout);
      act;
    }

let params = function
  | Gnn101 { w1; w2; b; _ } -> [ w1; w2; b ]
  | Gcn { w; _ } -> [ w ]
  | Gin { mlp; _ } -> Mlp.params mlp
  | Sage { wself; wnb; b; _ } -> [ wself; wnb; b ]
  | Gat { w; a_src; a_dst; _ } -> [ w; a_src; a_dst ]

let add_bias z (b : Param.t) =
  for i = 0 to Mat.rows z - 1 do
    for j = 0 to Mat.cols z - 1 do
      Mat.set z i j (Mat.get z i j +. Mat.get b.Param.data 0 j)
    done
  done

let accumulate_bias_grad (b : Param.t) dz =
  for j = 0 to Mat.cols dz - 1 do
    let s = ref 0.0 in
    for i = 0 to Mat.rows dz - 1 do
      s := !s +. Mat.get dz i j
    done;
    Mat.set b.Param.grad 0 j (Mat.get b.Param.grad 0 j +. !s)
  done

let forward_cached g layer h =
  match layer with
  | Gnn101 { w1; w2; b; act } ->
      let ah = Propagate.sum_neighbors g h in
      let z = Mat.add (Mat.mul h w1.Param.data) (Mat.mul ah w2.Param.data) in
      add_bias z b;
      (Activation.apply_mat act z, C_gnn101 { h; ah; z })
  | Gcn { w; act } ->
      let p = Propagate.gcn_neighbors g h in
      let z = Mat.mul p w.Param.data in
      (Activation.apply_mat act z, C_gcn { p; z })
  | Gin { eps; mlp } ->
      let s = Mat.add (Mat.scale (1.0 +. eps) h) (Propagate.sum_neighbors g h) in
      let y, mlp_cache = Mlp.forward_cached mlp s in
      (y, C_gin { mlp_cache })
  | Sage { agg; wself; wnb; b; act } ->
      let agg_h, argmax =
        match agg with
        | Sum -> (Propagate.sum_neighbors g h, None)
        | Mean -> (Propagate.mean_neighbors g h, None)
        | Max ->
            let m, a = Propagate.max_neighbors g h in
            (m, Some a)
      in
      let z = Mat.add (Mat.mul h wself.Param.data) (Mat.mul agg_h wnb.Param.data) in
      add_bias z b;
      (Activation.apply_mat act z, C_sage { h; agg_h; argmax; z })
  | Gat { w; a_src; a_dst; act } ->
      let n = Graph.n_vertices g in
      let hw = Mat.mul h w.Param.data in
      let d = Mat.cols hw in
      let src_score = Array.init n (fun v -> Vec.dot (Mat.row hw v) (Mat.row a_src.Param.data 0)) in
      let dst_score = Array.init n (fun v -> Vec.dot (Mat.row hw v) (Mat.row a_dst.Param.data 0)) in
      let leaky x = if x >= 0.0 then x else 0.2 *. x in
      let out = Mat.zeros n d in
      for v = 0 to n - 1 do
        let nb = Graph.neighbors g v in
        if Array.length nb > 0 then begin
          let scores = Array.map (fun u -> leaky (src_score.(u) +. dst_score.(v))) nb in
          let alpha = Vec.softmax scores in
          Array.iteri
            (fun i u ->
              for j = 0 to d - 1 do
                Mat.set out v j (Mat.get out v j +. (alpha.(i) *. Mat.get hw u j))
              done)
            nb
        end
      done;
      (Activation.apply_mat act out, C_none)

let act_backward act z dout = Mat.map2 (fun dy zv -> dy *. Activation.derivative act zv) dout z

(* Backward passes use the fused Mat kernels: dW accumulates via
   add_mul_at_b (no transpose / product intermediates) and dX comes from
   mul_abt; neighbour sums accumulate in place via add_sum_neighbors. *)
let backward g layer cache ~dout =
  match (layer, cache) with
  | Gnn101 { w1; w2; b; act }, C_gnn101 { h; ah; z } ->
      let dz = act_backward act z dout in
      Mat.add_mul_at_b ~into:w1.Param.grad h dz;
      Mat.add_mul_at_b ~into:w2.Param.grad ah dz;
      accumulate_bias_grad b dz;
      let dh = Mat.mul_abt dz w1.Param.data in
      Propagate.add_sum_neighbors ~into:dh g (Mat.mul_abt dz w2.Param.data);
      dh
  | Gcn { w; act }, C_gcn { p; z } ->
      let dz = act_backward act z dout in
      Mat.add_mul_at_b ~into:w.Param.grad p dz;
      Propagate.gcn_neighbors g (Mat.mul_abt dz w.Param.data)
  | Gin { eps; mlp }, C_gin { mlp_cache } ->
      let ds = Mlp.backward mlp mlp_cache ~dout in
      let dh = Mat.scale (1.0 +. eps) ds in
      Propagate.add_sum_neighbors ~into:dh g ds;
      dh
  | Sage { agg; wself; wnb; b; act }, C_sage { h; agg_h; argmax; z } ->
      let dz = act_backward act z dout in
      Mat.add_mul_at_b ~into:wself.Param.grad h dz;
      Mat.add_mul_at_b ~into:wnb.Param.grad agg_h dz;
      accumulate_bias_grad b dz;
      let dh = Mat.mul_abt dz wself.Param.data in
      let dagg = Mat.mul_abt dz wnb.Param.data in
      (match (agg, argmax) with
      | Sum, _ -> Propagate.add_sum_neighbors ~into:dh g dagg
      | Mean, _ -> Mat.add_inplace ~into:dh (Propagate.mean_neighbors_backward g dagg)
      | Max, Some a -> Mat.add_inplace ~into:dh (Propagate.max_neighbors_backward g a dagg)
      | Max, None -> assert false);
      dh
  | Gat _, _ -> failwith "Layer.backward: Gat is forward-only"
  | _ -> invalid_arg "Layer.backward: cache does not match layer"

(* Shadow layer for race-free parallel backward passes: weights shared,
   gradient buffers private (see Param.shadow). *)
let shadow = function
  | Gnn101 { w1; w2; b; act } ->
      Gnn101 { w1 = Param.shadow w1; w2 = Param.shadow w2; b = Param.shadow b; act }
  | Gcn { w; act } -> Gcn { w = Param.shadow w; act }
  | Gin { eps; mlp } -> Gin { eps; mlp = Mlp.shadow mlp }
  | Sage { agg; wself; wnb; b; act } ->
      Sage
        {
          agg;
          wself = Param.shadow wself;
          wnb = Param.shadow wnb;
          b = Param.shadow b;
          act;
        }
  | Gat { w; a_src; a_dst; act } ->
      Gat { w = Param.shadow w; a_src = Param.shadow a_src; a_dst = Param.shadow a_dst; act }
