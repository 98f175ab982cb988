(* Tests for glql_tensor: vectors and matrices. *)

open Helpers
module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Rng = Glql_util.Rng

let vec_arb =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "vec(seed=%d,n=%d)" seed n)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 20))

let vec_of (seed, n) =
  let rng = Rng.create seed in
  Vec.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0)

let test_vec_basic () =
  let v = [| 1.0; 2.0; 3.0 |] in
  check_float "dot" 14.0 (Vec.dot v v);
  check_int "argmax" 2 (Vec.argmax v)

let test_vec_ops () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 5.0 |] in
  check_bool "add" true (Vec.add a b = [| 4.0; 7.0 |]);
  check_bool "mul" true (Vec.mul a b = [| 3.0; 10.0 |]);
  check_bool "scale" true (Vec.scale 2.0 a = [| 2.0; 4.0 |]);
  check_bool "concat" true (Vec.concat [ a; b ] = [| 1.0; 2.0; 3.0; 5.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "map2 raises" (Invalid_argument "Vec.map2: dim mismatch") (fun () ->
      ignore (Vec.add [| 1.0 |] [| 1.0; 2.0 |]))

let prop_softmax_normalised =
  qtest "softmax sums to 1" vec_arb (fun input ->
      let v = vec_of input in
      let s = Vec.softmax v in
      Float.abs (Array.fold_left ( +. ) 0.0 s -. 1.0) < 1e-9 && Array.for_all (fun x -> x >= 0.0) s)

let prop_softmax_shift_invariant =
  qtest "softmax shift invariant" vec_arb (fun input ->
      let v = vec_of input in
      let s1 = Vec.softmax v in
      let s2 = Vec.softmax (Array.map (fun x -> x +. 100.0) v) in
      Vec.equal_approx ~tol:1e-9 s1 s2)

let prop_axpy =
  qtest "axpy = add of scaled" vec_arb (fun input ->
      let v = vec_of input in
      let into = Vec.copy v in
      Vec.axpy_inplace ~into 2.5 v;
      Vec.equal_approx into (Vec.add v (Vec.scale 2.5 v)))

let test_mat_identity () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j)) in
  check_bool "I * m = m" true (Mat.equal_approx (Mat.mul (Mat.identity 3) m) m);
  check_bool "m * I = m" true (Mat.equal_approx (Mat.mul m (Mat.identity 4)) m)

let test_mat_mul_known () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let b = Mat.of_rows [ [| 5.0; 6.0 |]; [| 7.0; 8.0 |] ] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let mat_arb =
  QCheck.make
    ~print:(fun (seed, r, c) -> Printf.sprintf "mat(seed=%d,%dx%d)" seed r c)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 1 8))

let mat_of (seed, r, c) = Mat.gaussian (Rng.create seed) r c ~stddev:1.0

let prop_transpose_involution =
  qtest "transpose involution" mat_arb (fun input ->
      let m = mat_of input in
      Mat.equal_approx m (Mat.transpose (Mat.transpose m)))

let prop_vec_mul_consistent =
  qtest "vec_mul row-by-row equals mul" mat_arb (fun input ->
      let seed, r, c = input in
      let m = mat_of input in
      let x = Vec.init r (fun i -> float_of_int (((seed + i) mod 7) - 3)) in
      let via_mul = Mat.mul (Mat.of_rows [ x ]) m in
      Vec.equal_approx ~tol:1e-9 (Mat.vec_mul x m) (Mat.row via_mul 0)
      && r > 0 && c > 0)

let prop_mul_associative =
  qtest ~count:25 "matrix product associative" mat_arb (fun input ->
      let seed, r, c = input in
      let a = mat_of input in
      let b = Mat.gaussian (Rng.create (seed + 1)) c 5 ~stddev:1.0 in
      let d = Mat.gaussian (Rng.create (seed + 2)) 5 3 ~stddev:1.0 in
      ignore r;
      Mat.equal_approx ~tol:1e-6 (Mat.mul (Mat.mul a b) d) (Mat.mul a (Mat.mul b d)))

let test_mat_shape_mismatch () =
  Alcotest.check_raises "mul raises" (Invalid_argument "Mat.mul: shape mismatch") (fun () ->
      ignore (Mat.mul (Mat.zeros 2 3) (Mat.zeros 2 3)))

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Mat.of_rows: ragged rows") (fun () ->
      ignore (Mat.of_rows [ [| 1.0 |]; [| 1.0; 2.0 |] ]))

let test_glorot_shape () =
  let m = Mat.glorot (Rng.create 5) 7 3 in
  check_int "rows" 7 (Mat.rows m);
  check_int "cols" 3 (Mat.cols m)

let suite =
  ( "tensor",
    [
      case "vec basics" test_vec_basic;
      case "vec ops" test_vec_ops;
      case "vec dim mismatch" test_vec_dim_mismatch;
      prop_softmax_normalised;
      prop_softmax_shift_invariant;
      prop_axpy;
      case "mat identity" test_mat_identity;
      case "mat mul known" test_mat_mul_known;
      prop_transpose_involution;
      prop_vec_mul_consistent;
      prop_mul_associative;
      case "mat shape mismatch" test_mat_shape_mismatch;
      case "of_rows ragged" test_of_rows_ragged;
      case "glorot shape" test_glorot_shape;
    ] )
