(* The graph embedding language GEL(Omega, Theta) (slides 57-62) and its
   guarded two-variable fragment MPNN(Omega, Theta) (slides 42-47).

   Expressions denote p-vertex embeddings xi_phi : G -> (V^p -> R^d) where
   p is the number of free variables and d the expression's dimension.
   Evaluation is database-style: every subexpression is materialised
   bottom-up as a table V^p -> R^d (the "calculus with aggregates" reading
   of slide 47), with a fast path for edge-guarded aggregation that walks
   adjacency lists only.

   Expressions produced by the compilers are DAGs (layers share their
   predecessor), so every analysis and the evaluator memoise on physical
   identity — in a table private to one top-level call, never in one
   shared by the process. *)

module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph

type var = int

type cmp = Ceq | Cneq

type t =
  | Lab of int * var            (* lab_j(x_i), dimension 1 (slide 43) *)
  | Edge of var * var           (* E(x_i, x_j) as a 0/1 value (slide 59) *)
  | Cmp of cmp * var * var      (* 1[x_i op x_j] (slide 59) *)
  | Const of Vec.t              (* constant vector, no free variables *)
  | Apply of Func.t * t list    (* F(phi_1, ..., phi_l) (slides 44, 60) *)
  | Agg of Agg.t * var list * t * t
      (* Agg (theta, ys, value, guard) = agg_theta_ys(value | guard):
         aggregate the value over assignments of ys where the guard is
         nonzero (slides 45-46, 61). *)

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* Physical-identity memo tables: expressions are DAGs and [Hashtbl.hash]
   is depth-bounded, so this is O(1) per node and sound for (==). Each
   analysis creates its table per top-level call and drops it on return.
   A process-wide table would keep every expression ever analysed alive,
   pile the structurally equal nodes of separate parses into one hash
   chain (so a lookup would cost more the longer the process had run),
   and be written by pool domains without a lock. *)
module Memo = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let check_var x = if x < 1 then type_error "variable x%d: variables are numbered from 1" x

let sorted_union a b = List.sort_uniq compare (a @ b)

(* The well-formedness rules, shared by the analyses and the evaluator. *)
let check_binder ys =
  List.iter check_var ys;
  if List.length (List.sort_uniq compare ys) <> List.length ys then
    type_error "aggregation binds a variable twice";
  if ys = [] then type_error "aggregation must bind at least one variable"

let check_apply (f : Func.t) got =
  if got <> f.Func.in_dims then
    type_error "Apply %s: argument dims [%s] do not match signature [%s]" f.Func.name
      (String.concat ";" (List.map string_of_int got))
      (String.concat ";" (List.map string_of_int f.Func.in_dims))

let check_agg (th : Agg.t) dv =
  if dv <> th.Agg.in_dim then
    type_error "Agg %s: value dim %d does not match aggregator dim %d" th.Agg.name dv th.Agg.in_dim

(* Free variables of an [Agg] node from those of its value and guard. *)
let agg_free ys inner = List.filter (fun v -> not (List.mem v ys)) inner

(* --- static analysis --------------------------------------------------- *)

let free_vars_memoized () =
  let memo = Memo.create 64 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some fv -> fv
    | None ->
        let fv =
          match e with
          | Lab (_, x) ->
              check_var x;
              [ x ]
          | Edge (x, y) | Cmp (_, x, y) ->
              check_var x;
              check_var y;
              List.sort_uniq compare [ x; y ]
          | Const _ -> []
          | Apply (_, args) -> List.fold_left (fun acc a -> sorted_union acc (go a)) [] args
          | Agg (_, ys, value, guard) ->
              check_binder ys;
              agg_free ys (sorted_union (go value) (go guard))
        in
        Memo.add memo e fv;
        fv
  in
  go

let free_vars e = free_vars_memoized () e

let all_vars e =
  let memo = Memo.create 64 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some vs -> vs
    | None ->
        let vs =
          match e with
          | Lab (_, x) -> [ x ]
          | Edge (x, y) | Cmp (_, x, y) -> List.sort_uniq compare [ x; y ]
          | Const _ -> []
          | Apply (_, args) -> List.fold_left (fun acc a -> sorted_union acc (go a)) [] args
          | Agg (_, ys, value, guard) ->
              sorted_union (List.sort_uniq compare ys) (sorted_union (go value) (go guard))
        in
        Memo.add memo e vs;
        vs
  in
  go e

(* Number of distinct variables: the k of GEL^k (slide 62). *)
let width e = List.length (all_vars e)

let dim_memoized () =
  let memo = Memo.create 64 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some d -> d
    | None ->
        let d =
          match e with
          | Lab _ | Edge _ | Cmp _ -> 1
          | Const v -> Vec.dim v
          | Apply (f, args) ->
              check_apply f (List.map go args);
              f.Func.out_dim
          | Agg (th, _, value, guard) ->
              let dv = go value in
              let _dg = go guard in
              check_agg th dv;
              th.Agg.out_dim
        in
        Memo.add memo e d;
        d
  in
  go

(* Dimension of an expression (slide 42); raises [Type_error] if the
   expression is ill-formed. One walk of the DAG per call. *)
let dim e = dim_memoized () e

(* Maximum nesting depth of aggregations — the number of message-passing
   rounds an MPNN expression performs. *)
let agg_depth_memoized () =
  let memo = Memo.create 64 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some d -> d
    | None ->
        let d =
          match e with
          | Lab _ | Edge _ | Cmp _ | Const _ -> 0
          | Apply (_, args) -> List.fold_left (fun acc a -> max acc (go a)) 0 args
          | Agg (_, _, value, guard) -> 1 + max (go value) (go guard)
        in
        Memo.add memo e d;
        d
  in
  go

let agg_depth e = agg_depth_memoized () e

(* Count of expression DAG nodes (shared nodes counted once). *)
let n_nodes e =
  let memo = Memo.create 64 in
  let count = ref 0 in
  let rec go e =
    if not (Memo.mem memo e) then begin
      Memo.add memo e ();
      incr count;
      match e with
      | Lab _ | Edge _ | Cmp _ | Const _ -> ()
      | Apply (_, args) -> List.iter go args
      | Agg (_, _, value, guard) ->
          go value;
          go guard
    end
  in
  go e;
  !count

(* Is the expression in the guarded MPNN fragment (slides 42-47, 62)?
   Width at most 2; [Edge]/[Cmp] atoms appear only as aggregation guards;
   every aggregation either binds one variable guarded by an edge atom
   between the bound and the free variable (neighbourhood aggregation) or
   is a global readout over a closed guard. *)
let is_mpnn e =
  let memo = Memo.create 64 in
  let free_vars = free_vars_memoized () in
  let rec check e =
    match Memo.find_opt memo e with
    | Some b -> b
    | None ->
        let b =
          match e with
          | Lab _ | Const _ -> true
          | Edge _ | Cmp _ -> false
          | Apply (_, args) -> List.for_all check args
          | Agg (_, [ y ], value, Edge (a, b)) ->
              a <> b
              && (a = y || b = y)
              && check value
              && List.for_all (fun v -> v = a || v = b) (free_vars value)
          | Agg (_, [ y ], value, guard) ->
              (* Global readout: closed guard (e.g. a nonzero constant). *)
              free_vars guard = [] && check guard && check value
              && List.for_all (fun v -> v = y) (free_vars value)
          | Agg _ -> false
        in
        Memo.add memo e b;
        b
  in
  width e <= 2 && check e

type fragment = Frag_mpnn | Frag_gel of int

let fragment e = if is_mpnn e then Frag_mpnn else Frag_gel (width e)

let fragment_name = function
  | Frag_mpnn -> "MPNN"
  | Frag_gel k -> Printf.sprintf "GEL%d" k

(* --- pretty printing ---------------------------------------------------- *)

let rec to_string e =
  match e with
  | Lab (j, x) -> Printf.sprintf "lab%d(x%d)" j x
  | Edge (x, y) -> Printf.sprintf "E(x%d,x%d)" x y
  | Cmp (Ceq, x, y) -> Printf.sprintf "1[x%d=x%d]" x y
  | Cmp (Cneq, x, y) -> Printf.sprintf "1[x%d!=x%d]" x y
  | Const v -> Vec.to_string v
  | Apply (f, args) ->
      Printf.sprintf "%s(%s)" f.Func.name (String.concat ", " (List.map to_string args))
  | Agg (th, ys, value, guard) ->
      Printf.sprintf "agg_%s{%s}(%s | %s)" th.Agg.name
        (String.concat "," (List.map (Printf.sprintf "x%d") ys))
        (to_string value) (to_string guard)

(* --- evaluation --------------------------------------------------------- *)

type table = {
  tvars : var list;  (* sorted ascending *)
  tn : int;          (* number of graph vertices *)
  tdim : int;
  tdata : Vec.t array;  (* length tn^|tvars|, row-major in tvars order *)
}

let table_size n vars =
  List.fold_left (fun acc _ -> acc * n) 1 vars

let table_index t (env : int array) =
  List.fold_left (fun acc v -> (acc * t.tn) + env.(v)) 0 t.tvars

let table_get t env = t.tdata.(table_index t env)

let nonzero v = Array.exists (fun x -> x <> 0.0) v

(* Enumerate assignments of [vars] into [env], calling [k] on each. *)
let rec enumerate n vars env k =
  match vars with
  | [] -> k ()
  | v :: rest ->
      for w = 0 to n - 1 do
        env.(v) <- w;
        enumerate n rest env k
      done

(* Each node's dimension and free variables come from the tables of its
   children (a table's [tvars] are its expression's free variables), and
   each node is checked against the rules of [dim] and [free_vars] as it
   is reached, so the DAG is walked once. *)
let eval g e =
  let n = Graph.n_vertices g in
  let memo = Memo.create 64 in
  let max_var = List.fold_left max 0 (all_vars e) in
  let env = Array.make (max_var + 2) 0 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some t -> t
    | None ->
        let t = compute e in
        Memo.add memo e t;
        t
  and compute e =
    match e with
    | Const v -> { tvars = []; tn = n; tdim = Vec.dim v; tdata = [| v |] }
    | Lab (j, x) ->
        check_var x;
        let data =
          Array.init n (fun v ->
              let l = Graph.label g v in
              if j < 0 || j >= Vec.dim l then
                type_error "lab%d: graph has label dimension %d" j (Vec.dim l);
              [| l.(j) |])
        in
        { tvars = [ x ]; tn = n; tdim = 1; tdata = data }
    | Edge (x, y) ->
        check_var x;
        check_var y;
        if x = y then
          (* E(x, x) is false on simple graphs. *)
          { tvars = [ x ]; tn = n; tdim = 1; tdata = Array.init n (fun _ -> [| 0.0 |]) }
        else begin
          let fv = List.sort compare [ x; y ] in
          let t = { tvars = fv; tn = n; tdim = 1; tdata = Array.make (table_size n fv) [||] } in
          enumerate n fv env (fun () ->
              t.tdata.(table_index t env) <-
                [| (if Graph.has_edge g env.(x) env.(y) then 1.0 else 0.0) |]);
          t
        end
    | Cmp (op, x, y) ->
        check_var x;
        check_var y;
        if x = y then begin
          let v = match op with Ceq -> 1.0 | Cneq -> 0.0 in
          { tvars = [ x ]; tn = n; tdim = 1; tdata = Array.init n (fun _ -> [| v |]) }
        end
        else begin
          let fv = List.sort compare [ x; y ] in
          let t = { tvars = fv; tn = n; tdim = 1; tdata = Array.make (table_size n fv) [||] } in
          enumerate n fv env (fun () ->
              let same = env.(x) = env.(y) in
              let b = match op with Ceq -> same | Cneq -> not same in
              t.tdata.(table_index t env) <- [| (if b then 1.0 else 0.0) |]);
          t
        end
    | Apply (f, args) ->
        let arg_tables = List.map go args in
        check_apply f (List.map (fun at -> at.tdim) arg_tables);
        let fv = List.fold_left (fun acc at -> sorted_union acc at.tvars) [] arg_tables in
        let t = { tvars = fv; tn = n; tdim = f.Func.out_dim; tdata = Array.make (table_size n fv) [||] } in
        enumerate n fv env (fun () ->
            let inputs = List.map (fun at -> table_get at env) arg_tables in
            t.tdata.(table_index t env) <- f.Func.apply inputs);
        t
    | Agg (th, ys, value, guard) ->
        check_binder ys;
        let vt = go value and gt = go guard in
        check_agg th vt.tdim;
        let fv = agg_free ys (sorted_union vt.tvars gt.tvars) in
        let t = { tvars = fv; tn = n; tdim = th.Agg.out_dim; tdata = Array.make (table_size n fv) [||] } in
        (* Fast path: single bound variable guarded by an adjacency atom
           with a free other endpoint — iterate neighbours only. *)
        let fast =
          match (ys, guard) with
          | [ y ], Edge (a, b) when a <> b && (a = y || b = y) ->
              let other = if a = y then b else a in
              if List.mem other fv then Some (y, other) else None
          | _ -> None
        in
        (match fast with
        | Some (y, other) ->
            enumerate n fv env (fun () ->
                let bag = ref [] in
                Array.iter
                  (fun w ->
                    env.(y) <- w;
                    bag := table_get vt env :: !bag)
                  (Graph.neighbors g env.(other));
                t.tdata.(table_index t env) <- th.Agg.apply (List.rev !bag));
            t
        | None ->
            enumerate n fv env (fun () ->
                let bag = ref [] in
                enumerate n ys env (fun () ->
                    if nonzero (table_get gt env) then bag := table_get vt env :: !bag);
                t.tdata.(table_index t env) <- th.Agg.apply (List.rev !bag));
            t)
  in
  go e

(* Value on a p-tuple of vertices, components in sorted free-variable
   order. *)
let eval_tuple g e tuple =
  let t = eval g e in
  if Array.length tuple <> List.length t.tvars then
    invalid_arg "Expr.eval_tuple: tuple length does not match free variables";
  let max_var = List.fold_left max 0 (1 :: t.tvars) in
  let env = Array.make (max_var + 1) 0 in
  List.iteri (fun i v -> env.(v) <- tuple.(i)) t.tvars;
  table_get t env

(* Value of a closed expression (graph embedding, slide 46). *)
let eval_closed g e =
  match free_vars e with
  | [] -> (eval g e).tdata.(0)
  | fv ->
      invalid_arg
        (Printf.sprintf "Expr.eval_closed: expression has free variables [%s]"
           (String.concat ";" (List.map string_of_int fv)))

(* Per-vertex values of a 1-free-variable expression. *)
let eval_vertexwise g e =
  match free_vars e with
  | [ _ ] -> Array.map Vec.copy (eval g e).tdata
  | _ -> invalid_arg "Expr.eval_vertexwise: expression must have exactly one free variable"
