(* The graph embedding language GEL(Omega, Theta) (slides 57-62) and its
   guarded two-variable fragment MPNN(Omega, Theta) (slides 42-47).

   Expressions denote p-vertex embeddings xi_phi : G -> (V^p -> R^d) where
   p is the number of free variables and d the expression's dimension.
   Evaluation is database-style (the "calculus with aggregates" reading
   of slide 47): an expression denotes a table V^p -> R^d, and each
   aggregation is a join over its variables whose edge atoms drive the
   enumeration through sorted CSR rows. Only the tables that are needed
   are materialised, as flat float arrays; see [eval].

   Expressions produced by the compilers are DAGs (layers share their
   predecessor), so every analysis and the evaluator memoise on physical
   identity — in a table private to one top-level call, never in one
   shared by the process. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
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

(* Label components read: the largest lab index plus one. *)
let labels_read e =
  let memo = Memo.create 64 in
  let m = ref 0 in
  let rec go e =
    if not (Memo.mem memo e) then begin
      Memo.add memo e ();
      match e with
      | Lab (j, _) -> m := max !m (j + 1)
      | Const _ | Edge _ | Cmp _ -> ()
      | Apply (_, args) -> List.iter go args
      | Agg (_, _, v, g) ->
          go v;
          go g
    end
  in
  go e;
  !m

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

module Clock = Glql_util.Clock
module Csr = Graph.Csr

type table = {
  tvars : var list;  (* sorted ascending *)
  tn : int;          (* number of graph vertices *)
  tdim : int;
  tdata : Vec.t array;  (* length tn^|tvars|, row-major in tvars order *)
}

let table_index t (env : int array) =
  List.fold_left (fun acc v -> (acc * t.tn) + env.(v)) 0 t.tvars

let table_get t env = t.tdata.(table_index t env)

(* The evaluator's own tables: one flat [float array], [dim] floats per
   row, rows row-major over the sorted variables [vars]. Only the root's
   is boxed into a public [table]. *)
type flat = { vars : var array; dim : int; data : float array }

(* The checks an atom or product passes when it is fused into a join
   rather than materialised. *)
let check_atom = function
  | Edge (x, y) | Cmp (_, x, y) ->
      check_var x;
      check_var y
  | _ -> ()

(* A test on the assignment built so far, run as soon as its last
   variable is bound. *)
type filter =
  | F_edge of var * var
  | F_eq of var * var
  | F_neq of var * var
  | F_never
  | F_guard of flat  (* a materialised guard: its row must be nonzero *)

(* Evaluation is a bottom-up walk of the DAG that materialises a flat
   table only where one is needed: at the root, for each aggregation, and
   for the arguments of [Apply] and the guards and values that are not
   indicators. Each node is checked against the rules of [dim] and
   [free_vars] as it is reached, so the DAG is walked once.

   An aggregation [agg{ys}(v | guard)] is a join over its variables. Its
   free variables are bound first, in sorted order, then [ys] in declared
   order. A guard built only from [Edge]/[Cmp] atoms and 1-dimensional
   [product]s of them (an indicator) is never materialised: its atoms
   are the filters of the join, and an edge atom whose other end is
   already bound makes a variable range over that vertex's sorted CSR
   row instead of over all vertices. The same holds for the value of a
   [sum] that is an indicator: its terms are 0 or 1, so leaving out the
   zero terms changes no bit. Any other guard is a table that filters
   the join where its row is zero; any other value is a table read at
   each admitted assignment.

   Candidate rows are sorted, so the admitted assignments are visited in
   the lexicographic order of a full enumeration, and the built-in
   aggregates fold their terms in the same order and with the same float
   operations as their [Agg.apply]. Results are bit-identical to
   materialising every subexpression over all n^|vars| assignments. *)
let eval_flat ~deadline g e =
  let n = Graph.n_vertices g in
  let csr = Graph.csr g in
  let offsets = csr.Csr.offsets and adjacency = csr.Csr.adjacency in
  let max_var = List.fold_left max 0 (all_vars e) in
  let env = Array.make (max_var + 2) 0 in
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps land 4095 = 0 then Clock.check deadline
  in
  let rec power k = if k = 0 then 1 else n * power (k - 1) in
  (* Row index of the current assignment in a table over [vars]. *)
  let index vars =
    let r = ref 0 in
    for i = 0 to Array.length vars - 1 do
      r := (!r * n) + env.(vars.(i))
    done;
    !r
  in
  let row t = index t.vars in
  (* Call [f] on every assignment of [vars] in lexicographic order, with
     the row index of that assignment. *)
  let each vars f =
    let k = Array.length vars in
    let rec go i r =
      if i = k then begin
        tick ();
        f r
      end
      else
        for w = 0 to n - 1 do
          env.(vars.(i)) <- w;
          go (i + 1) ((r * n) + w)
        done
    in
    go 0 0
  in
  (* A label beyond the graph's dimension fails once per [Lab] node,
     naming the largest label the expression reads, as the layered
     kernel does. *)
  let label_dim = Graph.label_dim g in
  let check_label j =
    if n > 0 && (j < 0 || j >= label_dim) then
      type_error "lab%d: graph has label dimension %d" (if j < 0 then j else labels_read e - 1)
        label_dim
  in
  let blit_result name want v out off =
    if Vec.dim v <> want then failwith (Printf.sprintf "%s: produced dim %d, declared %d" name (Vec.dim v) want);
    Array.blit v 0 out off want
  in
  (* The atoms of an indicator, or [None] for any other shape. *)
  let indicators = Memo.create 16 in
  let rec indicator e =
    match Memo.find_opt indicators e with
    | Some a -> a
    | None ->
        let a =
          match e with
          | Edge _ | Cmp _ ->
              check_atom e;
              Some [ e ]
          | Apply (({ Func.kind = Func.K_product; in_dims = [ 1; 1 ]; _ } as f), [ a; b ]) -> (
              match (indicator a, indicator b) with
              | Some la, Some lb ->
                  check_apply f [ 1; 1 ];
                  Some (List.sort_uniq compare (la @ lb))
              | _ -> None)
          | _ -> None
        in
        Memo.add indicators e a;
        a
  in
  let memo = Memo.create 64 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some t -> t
    | None ->
        let t = compute e in
        Memo.add memo e t;
        t
  and compute e =
    match e with
    | Const v -> { vars = [||]; dim = Vec.dim v; data = v }
    | Lab (j, x) ->
        check_var x;
        check_label j;
        let data =
          Array.init n (fun v ->
              tick ();
              (Graph.label g v).(j))
        in
        { vars = [| x |]; dim = 1; data }
    | Edge (x, y) ->
        check_atom e;
        if x = y then
          (* E(x, x) is false on simple graphs. *)
          { vars = [| x |]; dim = 1; data = Array.make n 0.0 }
        else begin
          let data = Array.make (n * n) 0.0 in
          for u = 0 to n - 1 do
            for j = offsets.(u) to offsets.(u + 1) - 1 do
              tick ();
              data.((u * n) + adjacency.(j)) <- 1.0
            done
          done;
          { vars = [| min x y; max x y |]; dim = 1; data }
        end
    | Cmp (op, x, y) ->
        check_atom e;
        let eq = op = Ceq in
        if x = y then { vars = [| x |]; dim = 1; data = Array.make n (if eq then 1.0 else 0.0) }
        else begin
          let vars = [| min x y; max x y |] in
          let data = Array.make (n * n) 0.0 in
          each vars (fun r -> if env.(x) = env.(y) = eq then data.(r) <- 1.0);
          { vars; dim = 1; data }
        end
    | Apply (f, args) ->
        let ts = List.map go args in
        check_apply f (List.map (fun t -> t.dim) ts);
        let vars =
          Array.of_list (List.fold_left (fun acc t -> sorted_union acc (Array.to_list t.vars)) [] ts)
        in
        let d = f.Func.out_dim in
        let data = Array.make (power (Array.length vars) * d) 0.0 in
        let what = "Func." ^ f.Func.name in
        each vars (fun r ->
            let inputs = List.map (fun t -> Array.sub t.data (row t * t.dim) t.dim) ts in
            blit_result what d (f.Func.apply inputs) data (r * d));
        { vars; dim = d; data }
    | Agg (th, ys, value, guard) ->
        check_binder ys;
        let value_atoms = if th.Agg.kind = Agg.Sum then indicator value else None in
        let vt = if value_atoms = None then Some (go value) else None in
        let guard_atoms = indicator guard in
        let gt = if guard_atoms = None then Some (go guard) else None in
        check_agg th (match vt with Some t -> t.dim | None -> 1);
        join th ys vt gt (Option.value value_atoms ~default:[] @ Option.value guard_atoms ~default:[])
  (* [agg{ys}] over a value table [vt] (or the constant 1 where the
     value's atoms are among [atoms]), filtered by [atoms] and the guard
     table [gt]. *)
  and join th ys vt gt atoms =
    let table_vars = function Some t -> Array.to_list t.vars | None -> [] in
    let atom_vars = function Edge (x, y) | Cmp (_, x, y) -> [ x; y ] | _ -> [] in
    let inner = List.sort_uniq compare (List.concat_map atom_vars atoms @ table_vars vt @ table_vars gt) in
    let free = Array.of_list (agg_free ys inner) in
    let order = Array.append free (Array.of_list ys) in
    let k = Array.length order and nfree = Array.length free in
    let pos = Array.make (max_var + 2) (-1) in
    Array.iteri (fun i v -> pos.(v) <- i) order;
    (* Level [i + 1] holds the filters to run once [order.(i)] is bound;
       level 0 those of no variable. [drive.(i)] is the bound partner
       whose neighbour row [order.(i)] ranges over, or -1. *)
    let filters = Array.make (k + 1) [] in
    let drive = Array.make k (-1) in
    let add level f = filters.(level + 1) <- f :: filters.(level + 1) in
    List.iter
      (fun a ->
        match a with
        | Edge (x, y) when x = y -> add (-1) F_never
        | Cmp (op, x, y) when x = y -> if op = Cneq then add (-1) F_never
        | Edge (x, y) ->
            let late, early = if pos.(x) > pos.(y) then (x, y) else (y, x) in
            if drive.(pos.(late)) < 0 then drive.(pos.(late)) <- early
            else add pos.(late) (F_edge (x, y))
        | Cmp (op, x, y) ->
            add (max pos.(x) pos.(y)) (if op = Ceq then F_eq (x, y) else F_neq (x, y))
        | _ -> ())
      atoms;
    Option.iter (fun t -> add (Array.fold_left (fun l v -> max l pos.(v)) (-1) t.vars) (F_guard t)) gt;
    let filters = Array.map (fun fs -> Array.of_list (List.rev fs)) filters in
    let holds = function
      | F_edge (x, y) -> Csr.has_edge csr env.(x) env.(y)
      | F_eq (x, y) -> env.(x) = env.(y)
      | F_neq (x, y) -> env.(x) <> env.(y)
      | F_never -> false
      | F_guard t ->
          let r = row t * t.dim in
          let c = ref 0 in
          while !c < t.dim && t.data.(r + !c) = 0.0 do
            incr c
          done;
          !c < t.dim
    in
    (* A loop, not [Array.for_all], which allocates a closure per call. *)
    let pass fs =
      let j = ref 0 in
      while !j < Array.length fs && holds fs.(!j) do
        incr j
      done;
      !j = Array.length fs
    in
    (* The fold: [base] is the output row of the current free assignment,
       [count] the number of terms folded into it. The value of a fused
       indicator is the constant 1. *)
    let od = th.Agg.out_dim in
    let what = "Agg." ^ th.Agg.name in
    let cells = power nfree in
    let out = Array.make (cells * od) 0.0 in
    let vdata, vdim = match vt with Some t -> (t.data, t.dim) | None -> ([| 1.0 |], 1) in
    let vrow = match vt with Some t -> fun () -> row t * t.dim | None -> fun () -> 0 in
    let base = ref 0 and count = ref 0 and bag = ref [] in
    let visited = if th.Agg.kind = Agg.Custom then Bytes.make cells '\000' else Bytes.empty in
    let term =
      match th.Agg.kind with
      | Agg.Sum | Agg.Mean ->
          fun () ->
            let r = vrow () and b = !base in
            for c = 0 to od - 1 do
              out.(b + c) <- out.(b + c) +. vdata.(r + c)
            done;
            incr count
      | Agg.Max | Agg.Min ->
          let pick = if th.Agg.kind = Agg.Max then Float.max else Float.min in
          fun () ->
            let r = vrow () and b = !base in
            if !count = 0 then Array.blit vdata r out b od
            else
              for c = 0 to od - 1 do
                out.(b + c) <- pick out.(b + c) vdata.(r + c)
              done;
            incr count
      | Agg.Count -> fun () -> incr count
      | Agg.Custom -> fun () -> bag := Array.sub vdata (vrow ()) vdim :: !bag
    in
    let finish cell =
      match th.Agg.kind with
      | Agg.Sum | Agg.Max | Agg.Min -> ()
      | Agg.Mean ->
          if !count > 0 then begin
            let s = 1.0 /. float_of_int !count in
            for c = 0 to od - 1 do
              out.(!base + c) <- s *. out.(!base + c)
            done
          end
      | Agg.Count -> out.(!base) <- float_of_int !count
      | Agg.Custom ->
          blit_result what od (th.Agg.apply (List.rev !bag)) out !base;
          Bytes.set visited cell '\001'
    in
    let rec walk i =
      if i = k then term ()
      else if i = nfree then begin
        (* All free variables are bound: fold one output row. *)
        let cell = index free in
        base := cell * od;
        count := 0;
        bag := [];
        range i;
        finish cell
      end
      else range i
    and range i =
      let v = order.(i) and fs = filters.(i + 1) in
      match drive.(i) with
      | -1 ->
          for w = 0 to n - 1 do
            visit v fs i w
          done
      | p ->
          let u = env.(p) in
          for j = offsets.(u) to offsets.(u + 1) - 1 do
            visit v fs i adjacency.(j)
          done
    and visit v fs i w =
      env.(v) <- w;
      tick ();
      if pass fs then walk (i + 1)
    in
    if pass filters.(0) then walk 0;
    (* Free assignments the join never reached hold the empty bag's
       aggregate: zero for the built-in ones. *)
    if th.Agg.kind = Agg.Custom && Bytes.contains visited '\000' then begin
      let empty = th.Agg.apply [] in
      Bytes.iteri
        (fun cell seen -> if seen = '\000' then blit_result what od empty out (cell * od))
        visited
    end;
    { vars = free; dim = od; data = out }
  in
  let t = go e in
  (power (Array.length t.vars), t)

let eval ?(deadline = None) g e =
  let rows, t = eval_flat ~deadline g e in
  {
    tvars = Array.to_list t.vars;
    tn = Graph.n_vertices g;
    tdim = t.dim;
    tdata = Array.init rows (fun r -> Array.sub t.data (r * t.dim) t.dim);
  }

(* The root table as a matrix of its own: a root such as [Const] hands
   back a payload the expression still holds, so the rows are copied. *)
let eval_matrix ?(deadline = None) g e =
  let rows, t = eval_flat ~deadline g e in
  let m = Mat.zeros rows t.dim in
  Array.blit t.data 0 (Mat.data m) 0 (rows * t.dim);
  m

(* Value of a closed expression (graph embedding, slide 46). *)
let eval_closed ?deadline g e =
  match free_vars e with
  | [] -> (eval ?deadline g e).tdata.(0)
  | fv ->
      invalid_arg
        (Printf.sprintf "Expr.eval_closed: expression has free variables [%s]"
           (String.concat ";" (List.map string_of_int fv)))

(* Per-vertex values of a 1-free-variable expression. *)
let eval_vertexwise ?deadline g e =
  match free_vars e with
  | [ _ ] -> (eval ?deadline g e).tdata
  | _ -> invalid_arg "Expr.eval_vertexwise: expression must have exactly one free variable"
