(* Graded modal logic (slide 54).

   Unary queries over labelled graphs:

     phi ::= p_j | true | not phi | phi and phi | phi or phi | <>_{>=k} phi

   where p_j holds at a vertex when the j-th label component is >= 0.5
   (labels are one-hot/boolean encodings, slide 6), and <>_{>=k} phi holds
   when at least k neighbours satisfy phi.  Barcelo et al.'s theorem says
   exactly these unary queries are MPNN-expressible; the compiler lives in
   [Glql_gel.Compile_gml] and experiment E6 checks it against this
   evaluator. *)

module Graph = Glql_graph.Graph
module Rng = Glql_util.Rng

type t =
  | Prop of int
  | Top
  | Not of t
  | And of t * t
  | Or of t * t
  | Diamond of int * t  (* Diamond (k, phi): at least k neighbours satisfy phi *)

let rec depth = function
  | Prop _ | Top -> 0
  | Not phi -> depth phi
  | And (a, b) | Or (a, b) -> max (depth a) (depth b)
  | Diamond (_, phi) -> 1 + depth phi

let rec size = function
  | Prop _ | Top -> 1
  | Not phi -> 1 + size phi
  | And (a, b) | Or (a, b) -> 1 + size a + size b
  | Diamond (_, phi) -> 1 + size phi

let rec to_string = function
  | Prop j -> Printf.sprintf "p%d" j
  | Top -> "T"
  | Not phi -> "!" ^ to_string phi
  | And (a, b) -> "(" ^ to_string a ^ " & " ^ to_string b ^ ")"
  | Or (a, b) -> "(" ^ to_string a ^ " | " ^ to_string b ^ ")"
  | Diamond (k, phi) -> Printf.sprintf "<>%d %s" k (to_string phi)

(* Truth value of every vertex, bottom-up with per-subformula tables. *)
let eval phi g =
  let n = Graph.n_vertices g in
  let rec go = function
    | Top -> Array.make n true
    | Prop j ->
        Array.init n (fun v ->
            let l = Graph.label g v in
            j < Array.length l && l.(j) >= 0.5)
    | Not phi ->
        let t = go phi in
        Array.map not t
    | And (a, b) ->
        let ta = go a and tb = go b in
        Array.init n (fun v -> ta.(v) && tb.(v))
    | Or (a, b) ->
        let ta = go a and tb = go b in
        Array.init n (fun v -> ta.(v) || tb.(v))
    | Diamond (k, phi) ->
        let t = go phi in
        Array.init n (fun v ->
            let c = ref 0 in
            Array.iter (fun u -> if t.(u) then incr c) (Graph.neighbors g v);
            !c >= k)
  in
  go phi

(* Random formula of the given modal depth over [n_props] propositions.
   Counting thresholds are drawn from [1, max_count]. *)
let random rng ~n_props ~target_depth ~max_count =
  let rec go d =
    if d = 0 then
      match Rng.int rng 2 with
      | 0 -> Prop (Rng.int rng (max 1 n_props))
      | _ -> Top
    else
      match Rng.int rng 5 with
      | 0 -> Not (go d)
      | 1 -> And (go d, go (Rng.int rng (d + 1)))
      | 2 -> Or (go d, go (Rng.int rng (d + 1)))
      | _ -> Diamond (1 + Rng.int rng max_count, go (d - 1))
  in
  (* Force the exact modal depth by wrapping if the draw fell short. *)
  let rec force phi =
    if depth phi >= target_depth then phi
    else force (Diamond (1, phi))
  in
  force (go target_depth)
