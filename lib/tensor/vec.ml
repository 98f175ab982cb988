(* Dense float vectors. A vector is a plain [float array]; this module
   collects the operations the embedding languages and the neural-network
   substrate need, always allocating fresh results unless the name says
   otherwise. *)

type t = float array

let create n x = Array.make n x

let zeros n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.map2: dim mismatch";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b

let mul a b = map2 ( *. ) a b

let scale s = Array.map (fun x -> s *. x)

let add_inplace ~into a =
  if Array.length into <> Array.length a then invalid_arg "Vec.add_inplace";
  for i = 0 to Array.length a - 1 do
    into.(i) <- into.(i) +. a.(i)
  done

let axpy_inplace ~into alpha a =
  if Array.length into <> Array.length a then invalid_arg "Vec.axpy_inplace";
  for i = 0 to Array.length a - 1 do
    into.(i) <- into.(i) +. (alpha *. a.(i))
  done

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.dot: dim mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let sum (v : t) = Array.fold_left ( +. ) 0.0 v

let linf_dist a b =
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    d := Float.max !d (Float.abs (a.(i) -. b.(i)))
  done;
  !d

let concat vs = Array.concat vs

let max_elt (v : t) =
  if Array.length v = 0 then invalid_arg "Vec.max_elt: empty";
  Array.fold_left Float.max v.(0) v

let argmax (v : t) =
  if Array.length v = 0 then invalid_arg "Vec.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

let softmax v =
  let m = max_elt v in
  let e = Array.map (fun x -> exp (x -. m)) v in
  let z = sum e in
  Array.map (fun x -> x /. z) e

let gaussian rng n ~stddev =
  Array.init n (fun _ -> stddev *. Glql_util.Rng.gaussian rng)

let equal_approx ?(tol = 1e-9) a b =
  Array.length a = Array.length b && linf_dist a b <= tol

let to_string ?(digits = 4) v =
  let parts = Array.to_list (Array.map (Printf.sprintf "%.*g" digits) v) in
  "[" ^ String.concat "; " parts ^ "]"
