(* Canonical string signatures for structured values.

   Weisfeiler-Leman style algorithms and the separation-power toolkit both
   need to intern "signatures" (multisets of colours, rounded float vectors,
   tuples of colours) into dense integer ids that are *comparable across
   graphs*.  We build explicit canonical strings rather than relying on
   [Hashtbl.hash], which could collide silently and corrupt a refinement. *)

let of_int_array ints =
  let b = Buffer.create 32 in
  Array.iter
    (fun i ->
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ',')
    ints;
  Buffer.contents b

(* Multiset signature: sort a *copy* so callers keep their order. The
   closure-free sort is output-equivalent to [Array.sort compare] on
   ints, so signatures — and every colouring interned from them — stay
   bit-identical. *)
let of_int_multiset ints = of_int_array (Int_sort.sorted_copy ints)

let of_string_list parts = String.concat ";" parts

(* Float vectors rounded to a tolerance, so numerically-equal embeddings
   intern to the same id.  [decimals] digits after the point. *)
let of_float_vector ?(decimals = 6) v =
  let b = Buffer.create 64 in
  Array.iter
    (fun x ->
      let r = Float.round (x *. (10.0 ** float_of_int decimals)) in
      (* Normalise -0. to 0. so that signatures match. *)
      let r = if r = 0.0 then 0.0 else r in
      Buffer.add_string b (Printf.sprintf "%.0f" r);
      Buffer.add_char b ',')
    v;
  Buffer.contents b

(* Interner: canonical string -> dense id, shared across graphs. *)
module Interner = struct
  type t = { tbl : (string, int) Hashtbl.t; mutable next : int }

  let create () = { tbl = Hashtbl.create 256; next = 0 }

  let intern t key =
    match Hashtbl.find_opt t.tbl key with
    | Some id -> id
    | None ->
        let id = t.next in
        t.next <- id + 1;
        Hashtbl.add t.tbl key id;
        id
end
