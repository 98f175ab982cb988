(* Weisfeiler-Leman simulating expressions with random weights.

   The equality directions of the theorems on slides 52 and 66
   (rho(CR) = rho(MPNN), rho(k-WL) = rho(GEL^{k+1})) are witnessed by
   expressions that *simulate* the refinement: random continuous "hash"
   updates make colour collisions measure-zero, so the partition induced
   by the expression's values matches the algorithm's partition on any
   finite corpus (with probability 1 over the weights).

   - [cr_expr] iterates h(x) -> hash(h(x), sum_{y~x} psi(h(y))): the
     MPNN-language simulation of colour refinement (slide 52).
   - [fwl2_expr] iterates pair colours
     c(x1,x2) -> hash(c(x1,x2), sum_{x3} pair(c(x1,x3), c(x3,x2))):
     the GEL^3 simulation of folklore 2-WL (slide 66). It uses exactly
     three variables, reusing them across rounds. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Activation = Glql_nn.Activation
module B = Builder

(* A random "hash" in Omega: tanh of a random affine map. On any fixed
   finite input set it is injective with probability 1. *)
let hash_fn rng ~in_dim ~out_dim =
  (* tanh of a random affine map, scaled so the map is not contractive:
     a contractive hash shrinks colour differences geometrically with the
     number of rounds until they fall below rounding, losing separations
     the exact refinement makes (observed with small-scale sigmoids). *)
  let w = Mat.gaussian rng in_dim out_dim ~stddev:(3.0 /. sqrt (float_of_int in_dim)) in
  let b = Vec.gaussian rng out_dim ~stddev:0.5 in
  Func.custom ~name:"hash" ~in_dims:[ in_dim ] ~out_dim (fun args ->
      match args with
      | [ x ] -> Activation.apply_vec Activation.Tanh (Vec.add (Mat.vec_mul x w) b)
      | _ -> assert false)

(* Colour-refinement simulation in the MPNN fragment. *)
let cr_expr rng ~label_dim ~rounds ~dim =
  let x = B.x1 and y = B.x2 in
  let init_f = hash_fn rng ~in_dim:label_dim ~out_dim:dim in
  let init v = Expr.Apply (init_f, [ B.labels ~dim:label_dim v ]) in
  let rec go t (prev_x, prev_y) =
    if t = 0 then prev_x
    else begin
      let msg = hash_fn rng ~in_dim:dim ~out_dim:dim in
      let upd = hash_fn rng ~in_dim:(2 * dim) ~out_dim:dim in
      let step ~self ~other ~sv ~ov =
        let summed = B.sum_neighbors ~x:sv ~y:ov (Expr.Apply (msg, [ other ])) in
        Expr.Apply (upd, [ B.concat [ self; summed ] ])
      in
      go (t - 1)
        ( step ~self:prev_x ~other:prev_y ~sv:x ~ov:y,
          step ~self:prev_y ~other:prev_x ~sv:y ~ov:x )
    end
  in
  go rounds (init x, init y)

(* Folklore 2-WL simulation in GEL^3: three variables x1, x2, x3 are
   reused across rounds; the pair colour c_t(a, b) is memoised per
   (round, variable pair) so the expression is a compact DAG, and each
   round's hash functions are shared across variable renamings. *)
let fwl2_expr rng ~label_dim ~rounds ~dim =
  let atom_f = hash_fn rng ~in_dim:((2 * label_dim) + 2) ~out_dim:dim in
  let round_fs =
    Array.init rounds (fun _ ->
        (hash_fn rng ~in_dim:(2 * dim) ~out_dim:dim, hash_fn rng ~in_dim:(2 * dim) ~out_dim:dim))
  in
  let memo = Hashtbl.create 64 in
  let other a b = B.x1 + B.x2 + B.x3 - a - b in
  let rec c t a b =
    match Hashtbl.find_opt memo (t, a, b) with
    | Some e -> e
    | None ->
        let e =
          if t = 0 then
            Expr.Apply
              ( atom_f,
                [
                  B.concat
                    [ B.labels ~dim:label_dim a; B.labels ~dim:label_dim b; B.edge a b; B.eq a b ];
                ] )
          else begin
            let pair_f, upd_f = round_fs.(t - 1) in
            let via = other a b in
            let mixed = Expr.Apply (pair_f, [ B.concat [ c (t - 1) a via; c (t - 1) via b ] ]) in
            let summed = B.agg_all (Agg.sum dim) ~ys:[ via ] mixed in
            Expr.Apply (upd_f, [ B.concat [ c (t - 1) a b; summed ] ])
          end
        in
        Hashtbl.add memo (t, a, b) e;
        e
  in
  c rounds B.x1 B.x2
