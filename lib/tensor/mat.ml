(* Dense row-major matrices. Small and BLAS-free: the corpora in this
   repository keep dimensions in the tens to low hundreds, where a cache
   friendly triple loop is plenty.

   Products above [par_flops] multiply-adds are row-blocked over the
   domain pool.  Each output row is produced start-to-finish by exactly
   one domain with the same inner loops as the sequential code, so
   results are bit-identical for every pool size. *)

module Pool = Glql_util.Pool

type t = { rows : int; cols : int; data : float array }

(* Below this many multiply-adds the dispatch overhead outweighs the
   parallelism; MLP-sized products stay sequential. *)
let par_flops = 16_384

let create rows cols x = { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let rows m = m.rows

let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let data m = m.data

let of_rows rows_list =
  match rows_list with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ ->
      let cols = Array.length first in
      let rows = List.length rows_list in
      let m = zeros rows cols in
      List.iteri
        (fun i r ->
          if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows";
          Array.blit r 0 m.data (i * cols) cols)
        rows_list;
      m

let row m i = Array.sub m.data (i * m.cols) m.cols

let map f m = { m with data = Array.map f m.data }

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.map2: shape mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

(* into = f a b pointwise; [into] may alias [a] or [b], which lets the
   backward passes reuse a gradient buffer as scratch. *)
let map2_into ~into f a b =
  if a.rows <> b.rows || a.cols <> b.cols || into.rows <> a.rows || into.cols <> a.cols then
    invalid_arg "Mat.map2_into: shape mismatch";
  for k = 0 to Array.length a.data - 1 do
    into.data.(k) <- f a.data.(k) b.data.(k)
  done

let add a b = map2 ( +. ) a b

let scale s m = map (fun x -> s *. x) m

let transpose m =
  init m.cols m.rows (fun i j -> get m j i)

(* y = x * m for a row vector x (the convention of the paper: F W),
   accumulated into a caller-owned buffer. *)
let vec_mul_into ~into (x : Vec.t) m =
  if Array.length x <> m.rows then invalid_arg "Mat.vec_mul_into: dim mismatch";
  if Array.length into <> m.cols then invalid_arg "Mat.vec_mul_into: bad output dim";
  let y = into in
  Array.fill y 0 m.cols 0.0;
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then begin
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (xi *. m.data.(base + j))
      done
    end
  done

let vec_mul (x : Vec.t) m =
  let y = Array.make m.cols 0.0 in
  vec_mul_into ~into:y x m;
  y

(* C = A B written into a caller-owned (scratch) matrix; row-blocked over
   the pool when big enough. *)
let mul_into ~into a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: shape mismatch";
  if into.rows <> a.rows || into.cols <> b.cols then invalid_arg "Mat.mul_into: bad output shape";
  if into.data == a.data || into.data == b.data then invalid_arg "Mat.mul_into: aliased output";
  let c = into in
  let do_row i =
    let cbase = i * c.cols in
    Array.fill c.data cbase c.cols 0.0;
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then begin
        let bbase = k * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(cbase + j) <- c.data.(cbase + j) +. (aik *. b.data.(bbase + j))
        done
      end
    done
  in
  if a.rows * a.cols * b.cols >= par_flops then Pool.parallel_for ~n:a.rows do_row
  else
    for i = 0 to a.rows - 1 do
      do_row i
    done

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: shape mismatch";
  let c = zeros a.rows b.cols in
  mul_into ~into:c a b;
  c

(* into += A^T B, without materialising the transpose or the product —
   the dW accumulation of every backward pass. *)
let add_mul_at_b ~into a b =
  if a.rows <> b.rows then invalid_arg "Mat.add_mul_at_b: shape mismatch";
  if into.rows <> a.cols || into.cols <> b.cols then
    invalid_arg "Mat.add_mul_at_b: bad output shape";
  for k = 0 to a.rows - 1 do
    let abase = k * a.cols and bbase = k * b.cols in
    for i = 0 to a.cols - 1 do
      let aki = a.data.(abase + i) in
      if aki <> 0.0 then begin
        let cbase = i * into.cols in
        for j = 0 to b.cols - 1 do
          into.data.(cbase + j) <- into.data.(cbase + j) +. (aki *. b.data.(bbase + j))
        done
      end
    done
  done

(* C = A B^T without materialising the transpose — the dX computation of
   every backward pass (both operands are walked along rows). *)
let mul_abt a b =
  if a.cols <> b.cols then invalid_arg "Mat.mul_abt: shape mismatch";
  let c = zeros a.rows b.rows in
  let do_row i =
    let abase = i * a.cols and cbase = i * c.cols in
    for j = 0 to b.rows - 1 do
      let bbase = j * b.cols in
      let acc = ref 0.0 in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (a.data.(abase + k) *. b.data.(bbase + k))
      done;
      c.data.(cbase + j) <- !acc
    done
  in
  if a.rows * a.cols * b.rows >= par_flops then Pool.parallel_for ~n:a.rows do_row
  else
    for i = 0 to a.rows - 1 do
      do_row i
    done;
  c

let add_inplace ~into a =
  if into.rows <> a.rows || into.cols <> a.cols then invalid_arg "Mat.add_inplace";
  for k = 0 to Array.length a.data - 1 do
    into.data.(k) <- into.data.(k) +. a.data.(k)
  done

let axpy_inplace ~into alpha a =
  if into.rows <> a.rows || into.cols <> a.cols then invalid_arg "Mat.axpy_inplace";
  for k = 0 to Array.length a.data - 1 do
    into.data.(k) <- into.data.(k) +. (alpha *. a.data.(k))
  done

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let gaussian rng rows cols ~stddev =
  init rows cols (fun _ _ -> stddev *. Glql_util.Rng.gaussian rng)

(* Glorot/Xavier initialisation used by the GNN substrate. *)
let glorot rng rows cols =
  let stddev = sqrt (2.0 /. float_of_int (rows + cols)) in
  gaussian rng rows cols ~stddev

let equal_approx ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  (* Short-circuits on the first out-of-tolerance element. *)
  let n = Array.length a.data in
  let rec ok k = k >= n || ((not (Float.abs (a.data.(k) -. b.data.(k)) > tol)) && ok (k + 1)) in
  ok 0
