(* SplitMix64: deterministic, splittable pseudo-random generator.

   All randomness in glql flows through this module so that every
   experiment is reproducible bit-for-bit from its seed.  The algorithm
   follows Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform float in [0, 1): use the top 53 bits. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
  v mod bound

(* Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = ref (float t) in
  while !u1 = 0.0 do
    u1 := float t
  done;
  let u2 = float t in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
