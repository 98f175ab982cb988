(* The evaluator [Expr.eval] had before it became a join over CSR,
   kept verbatim as a reference oracle for the differential qcheck in
   test_properties: every subexpression is materialised as a table over
   all n^|vars| assignments of boxed cells, each aggregation collects a
   list bag per cell, and a single bound variable guarded by an edge atom
   walks adjacency lists. It lives only under test/. *)

open Glql_gel.Expr
module Vec = Glql_tensor.Vec
module Graph = Glql_graph.Graph
module Func = Glql_gel.Func
module Agg = Glql_gel.Agg

module Memo = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let check_var x = if x < 1 then type_error "variable x%d: variables are numbered from 1" x

let sorted_union a b = List.sort_uniq compare (a @ b)

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

let agg_free ys inner = List.filter (fun v -> not (List.mem v ys)) inner

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

