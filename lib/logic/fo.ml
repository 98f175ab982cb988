(* First-order logic with counting quantifiers over labelled graphs.

   This is the logic side of the correspondences in slides 51 and 66:
   guarded C2 matches colour refinement, and C^{k+1} (counting logic with
   k+1 variables) matches k-WL.  The evaluator enumerates assignments, so
   it is meant for the small graphs of the test corpora.

   Variables are numbered from 0. *)

module Graph = Glql_graph.Graph

type t =
  | True
  | Lab of int * int           (* Lab (j, x): label component j of x is >= 0.5 *)
  | Edge of int * int          (* Edge (x, y) *)
  | Eq of int * int            (* x = y *)
  | Not of t
  | And of t * t
  | Or of t * t
  | ExistsGeq of int * int * t (* ExistsGeq (k, x, phi): >= k witnesses for x *)

let exists x phi = ExistsGeq (1, x, phi)

let rec free_vars = function
  | True -> []
  | Lab (_, x) -> [ x ]
  | Edge (x, y) | Eq (x, y) -> if x = y then [ x ] else [ x; y ]
  | Not phi -> free_vars phi
  | And (a, b) | Or (a, b) -> List.sort_uniq compare (free_vars a @ free_vars b)
  | ExistsGeq (_, x, phi) -> List.filter (fun y -> y <> x) (free_vars phi)

let rec variables = function
  | True -> []
  | Lab (_, x) -> [ x ]
  | Edge (x, y) | Eq (x, y) -> List.sort_uniq compare [ x; y ]
  | Not phi -> variables phi
  | And (a, b) | Or (a, b) -> List.sort_uniq compare (variables a @ variables b)
  | ExistsGeq (_, x, phi) -> List.sort_uniq compare (x :: variables phi)

(* Width: number of distinct variables used (the k of C^k). *)
let width phi = List.length (variables phi)

(* [eval phi g env] with [env] an assignment array indexed by variable.
   Unassigned variables may hold any value as long as they do not occur
   free. *)
let rec eval phi g (env : int array) =
  match phi with
  | True -> true
  | Lab (j, x) ->
      let l = Graph.label g env.(x) in
      j < Array.length l && l.(j) >= 0.5
  | Edge (x, y) -> Graph.has_edge g env.(x) env.(y)
  | Eq (x, y) -> env.(x) = env.(y)
  | Not phi -> not (eval phi g env)
  | And (a, b) -> eval a g env && eval b g env
  | Or (a, b) -> eval a g env || eval b g env
  | ExistsGeq (k, x, phi) ->
      let saved = env.(x) in
      let count = ref 0 in
      let v = ref 0 in
      let n = Graph.n_vertices g in
      while !count < k && !v < n do
        env.(x) <- !v;
        if eval phi g env then incr count;
        incr v
      done;
      env.(x) <- saved;
      !count >= k

(* Truth table of a unary query (one free variable [x]). *)
let eval_unary phi g ~x =
  let max_var =
    List.fold_left max x (variables phi)
  in
  let env = Array.make (max_var + 1) 0 in
  Array.init (Graph.n_vertices g) (fun v ->
      env.(x) <- v;
      eval phi g env)

(* Boolean (sentence) value. *)
let eval_sentence phi g =
  match free_vars phi with
  | [] ->
      if Graph.n_vertices g = 0 then invalid_arg "Fo.eval_sentence: empty graph";
      let max_var = List.fold_left max 0 (0 :: variables phi) in
      eval phi g (Array.make (max_var + 1) 0)
  | _ -> invalid_arg "Fo.eval_sentence: formula has free variables"
