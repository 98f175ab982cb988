(* Normal forms for MPNN(Omega, sum) expressions (slide 55, after
   Geerts-Steegmans-Van den Bussche, FoIKS 2022).

   A normal-form MPNN alternates pure function application with one plain
   neighbourhood sum of the full feature vector:

       phi(t)(x1) = F(t)( phi(t-1)(x1), agg_sum_{x2}(phi(t-1)(x2) | E(x1,x2)) )

   The transformation proceeds in two steps:

   1. *Separation* (the linearity-of-sum step): every aggregation
      agg_sum_{y}(value | E(x,y)) whose value mixes both variables is
      rewritten so the value only mentions the bound variable, by pushing
      the sum through concatenation, linear maps, products with an
      x-only factor, etc.; a value not mentioning y at all becomes
      deg(x) * value. Opaque function kinds block this and raise
      [Unsupported] — matching the theorem's restriction to sum
      aggregation (mean/max aggregators are rejected too).

   2. *Layering*: each remaining aggregation node gets two feature slots —
      its per-vertex message and its aggregated result. Layer 2t-1
      computes the messages of all depth-t aggregations by function
      application; layer 2t reads their neighbourhood sums off the
      aggregated feature vector. The final expression value is a function
      of the last feature vector.

   The result evaluates round by round like a GNN, in place over CSR
   (fast path), and can be exported back as a bona-fide normal-form
   expression. *)

module Vec = Glql_tensor.Vec
module Mat = Glql_tensor.Mat
module Graph = Glql_graph.Graph
module Trace = Glql_util.Trace
module Clock = Glql_util.Clock

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let is_sum (th : Agg.t) = th.Agg.kind = Agg.Sum

module Memo = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let deg ~x ~y = Expr.Agg (Agg.sum 1, [ y ], Expr.Const [| 1.0 |], Expr.Edge (x, y))

(* --- step 1: separation ------------------------------------------------- *)

(* [push ~x ~y value] builds an expression over {x} equal to
   sum_{y in N(x)} value(x, y). [free_vars] and [dim] are the memoised
   analyses of the enclosing [separate] call, so pushing through a deep
   value walks each of its nodes once. *)
let rec push ~free_vars ~dim ~x ~y value =
  let fv = free_vars value in
  let d = dim value in
  if fv = [] || fv = [ x ] then
    (* Independent of y: the sum is deg(x) copies. *)
    Expr.Apply (Func.scale_by d, [ value; deg ~x ~y ])
  else if fv = [ y ] then Expr.Agg (Agg.sum d, [ y ], value, Expr.Edge (x, y))
  else begin
    match value with
    | Expr.Edge (a, b) when (a = x && b = y) || (a = y && b = x) ->
        (* sum_{y ~ x} E(x,y) = deg(x). *)
        deg ~x ~y
    | Expr.Cmp (Expr.Cneq, a, b) when (a = x && b = y) || (a = y && b = x) ->
        (* Neighbours are never equal on simple graphs. *)
        deg ~x ~y
    | Expr.Cmp (Expr.Ceq, a, b) when (a = x && b = y) || (a = y && b = x) ->
        Expr.Const [| 0.0 |]
    | Expr.Apply (f, args) -> push_apply ~free_vars ~dim ~x ~y f args
    | _ -> unsupported "cannot push sum through %s" (Expr.to_string value)
  end

and push_apply ~free_vars ~dim ~x ~y f args =
  let push = push ~free_vars ~dim in
  let open Func in
  match (f.kind, args) with
  | K_concat, _ ->
      let pushed = List.map (push ~x ~y) args in
      Expr.Apply (Func.concat (List.map dim pushed), pushed)
  | K_linear (w, b), [ arg ] ->
      (* sum (a W + b) = (sum a) W + deg * b *)
      let bmat = Mat.init 1 (Vec.dim b) (fun _ j -> b.(j)) in
      Expr.Apply
        ( Func.linear_multi ~name:"pushed-linear" [ w; bmat ] (Vec.zeros (Vec.dim b)),
          [ push ~x ~y arg; deg ~x ~y ] )
  | K_linear_multi (ws, b), _ ->
      let bmat = Mat.init 1 (Vec.dim b) (fun _ j -> b.(j)) in
      Expr.Apply
        ( Func.linear_multi ~name:"pushed-linear-multi" (ws @ [ bmat ]) (Vec.zeros (Vec.dim b)),
          List.map (push ~x ~y) args @ [ deg ~x ~y ] )
  | K_add, [ a; b ] -> Expr.Apply (f, [ push ~x ~y a; push ~x ~y b ])
  | K_scale _, [ a ] -> Expr.Apply (f, [ push ~x ~y a ])
  | K_product, [ a; b ] ->
      let fa = free_vars a and fb = free_vars b in
      let dprod = dim a in
      if List.for_all (fun v -> v = x) fa then Expr.Apply (Func.product dprod, [ a; push ~x ~y b ])
      else if List.for_all (fun v -> v = x) fb then
        Expr.Apply (Func.product dprod, [ push ~x ~y a; b ])
      else unsupported "product mixes the bound variable on both sides"
  | K_scale_by, [ v; s ] ->
      let fvv = free_vars v and fvs = free_vars s in
      let dv = dim v in
      if List.for_all (fun w -> w = x) fvs then Expr.Apply (Func.scale_by dv, [ push ~x ~y v; s ])
      else if List.for_all (fun w -> w = x) fvv then
        Expr.Apply (Func.scale_by dv, [ v; push ~x ~y s ])
      else unsupported "scale-by mixes the bound variable on both sides"
  | _ -> unsupported "cannot push sum through opaque function %s" f.name

(* Rewrite so that every neighbourhood aggregation's value mentions only
   the bound variable. Memoised on physical identity to preserve DAG
   sharing. *)
let separate e =
  let memo = Memo.create 64 in
  let push = push ~free_vars:(Expr.free_vars_memoized ()) ~dim:(Expr.dim_memoized ()) in
  let rec go e =
    match Memo.find_opt memo e with
    | Some e' -> e'
    | None ->
        let e' =
          match e with
          | Expr.Lab _ | Expr.Const _ -> e
          | Expr.Cmp (_, a, b) when a = b -> e
          | Expr.Edge _ | Expr.Cmp _ ->
              unsupported "naked binary atom %s outside a guard" (Expr.to_string e)
          | Expr.Apply (f, args) -> Expr.Apply (f, List.map go args)
          | Expr.Agg (th, [ y ], value, Expr.Edge (a, b)) when a <> b && (a = y || b = y) ->
              if not (is_sum th) then
                unsupported "normal form requires sum aggregation, got %s" th.Agg.name;
              let x = if a = y then b else a in
              push ~x ~y (go value)
          | Expr.Agg _ -> unsupported "unsupported aggregation shape %s" (Expr.to_string e)
        in
        Memo.add memo e e';
        e'
  in
  go e

(* --- step 2: layering ---------------------------------------------------- *)

(* An aggregation's two regions of the feature row: its message
   ([msg_off], [sdim] wide) and its neighbourhood sum ([res_off]). *)
type slot = { msg_off : int; res_off : int; sdim : int }

(* A compiled value of one vertex: [w src so dst o] reads the vertex's
   feature row, which starts at [src.(so)], and writes the value's
   components to [dst] from index [o] on. *)
type writer = float array -> int -> float array -> int -> unit

(* Round t of the schedule: the slots of the depth-t aggregations, each
   with its message compiled against the feature row. *)
type round = { slots : slot array; messages : writer array }

(* Immutable once built: pool domains evaluate one cached plan at once, so
   [eval] keeps its rows local to the call. *)
type t = {
  d0 : int;
  reads_labels : bool;  (* whether any [Lab] survives separation *)
  feature_dim : int;
  stride : int;  (* feature_dim, then the scratch regions of [compile] *)
  out_dim : int;
  schedule : round array;  (* round t at index t-1; the net has 2L layers *)
  output : writer;
  normal_expr : Expr.t;    (* the expression in normal-form shape *)
}

(* Gather all (separated) aggregation nodes, deduplicated physically. *)
let collect_aggs e =
  let memo = Memo.create 64 in
  let out = ref [] in
  let rec go e =
    if not (Memo.mem memo e) then begin
      Memo.add memo e ();
      match e with
      | Expr.Lab _ | Expr.Const _ | Expr.Edge _ | Expr.Cmp _ -> ()
      | Expr.Apply (_, args) -> List.iter go args
      | Expr.Agg (_, _, value, guard) ->
          go value;
          go guard;
          out := e :: !out
    end
  in
  go e;
  !out

(* [dst.(o ..)] <- [src.(so ..)], [d] floats. A loop: the rows' copies
   are a few floats each, far below what pays for [Array.blit]'s call. *)
let copy (src : float array) so (dst : float array) o d =
  for i = 0 to d - 1 do
    dst.(o + i) <- src.(so + i)
  done

(* Compile a separated single-variable expression into a writer over the
   vertex's own feature row. Every [Agg] node is already resolved to its
   result slot, so evaluation does no lookups. An [Apply] reads its
   arguments in place where they already sit in the row (labels, result
   slots); any other argument is first written to a scratch region of the
   row, taken from [scratch] (which returns a fresh offset for a given
   width). Two kinds write their result with the same float operations
   as their [Func.apply], allocating nothing: [scale-by], which
   separation makes of every constant-valued sum ([c] times the degree),
   and activations (the relu layers of MPNN queries). Every other
   function gets its arguments as vectors and calls [Func.apply]. *)
let compile slots dim ~scratch e =
  let memo = Memo.create 64 in
  let rec go e : writer =
    match Memo.find_opt memo e with
    | Some c -> c
    | None ->
        let c : writer =
          match e with
          | Expr.Const v ->
              let d = Vec.dim v in
              fun _ _ dst o -> copy v 0 dst o d
          | Expr.Lab (j, _) -> fun src so dst o -> dst.(o) <- src.(so + j)
          | Expr.Cmp (Expr.Ceq, a, b) when a = b -> fun _ _ dst o -> dst.(o) <- 1.0
          | Expr.Cmp (Expr.Cneq, a, b) when a = b -> fun _ _ dst o -> dst.(o) <- 0.0
          | Expr.Apply (fn, args) -> apply fn args (dim e)
          | Expr.Agg _ ->
              let s = Memo.find slots e in
              fun src so dst o -> copy src (so + s.res_off) dst o s.sdim
          | _ -> assert false
        in
        Memo.add memo e c;
        c
  (* Where an argument can be read in the row, and the writer (if any)
     that puts it there first. *)
  and operand e =
    match e with
    | Expr.Lab (j, _) -> (j, None)
    | Expr.Agg _ -> ((Memo.find slots e).res_off, None)
    | _ ->
        let off = scratch (dim e) and w = go e in
        (off, Some (fun src so -> w src so src (so + off)))
  and apply fn args d : writer =
    let ops = List.map operand args in
    let preps = Array.of_list (List.filter_map snd ops) in
    let offs_list = List.map fst ops in
    let offs = Array.of_list offs_list in
    let body : writer =
      match (fn.Func.kind, offs) with
      | Func.K_scale_by, [| a; c |] ->
          fun src so dst o ->
            let c = src.(so + c) in
            for i = 0 to d - 1 do
              dst.(o + i) <- c *. src.(so + a + i)
            done
      | Func.K_activation act, [| a |] ->
          let f = Func.Activation.apply act in
          fun src so dst o ->
            for i = 0 to d - 1 do
              dst.(o + i) <- f src.(so + a + i)
            done
      | _ ->
          let dims = List.map dim args in
          fun src so dst o ->
            let vecs = List.map2 (fun off d -> Array.sub src (so + off) d) offs_list dims in
            Array.blit (fn.Func.apply vecs) 0 dst o d
    in
    if Array.length preps = 0 then body
    else fun src so dst o ->
      for k = 0 to Array.length preps - 1 do
        preps.(k) src so
      done;
      body src so dst o
  in
  go e

(* Write round [r]'s messages into the feature row at [data.(base)].
   Messages read only label, result and scratch slots, never message
   slots, so writing in place is safe. *)
let write_messages r data base =
  for i = 0 to Array.length r.slots - 1 do
    r.messages.(i) data base data (base + r.slots.(i).msg_off)
  done

let of_vertex_expr_untraced e =
  (match Expr.free_vars e with
  | [ _ ] -> ()
  | _ -> invalid_arg "Normal_form.of_vertex_expr: need exactly one free variable");
  if not (Expr.is_mpnn e) then unsupported "expression is not in the MPNN fragment";
  let sep = separate e in
  let labels_used = Expr.labels_read sep in
  let d0 = max 1 labels_used in
  (* Every aggregation is a genuine sum aggregation and gets a message and
     a result slot, laid out after the labels. *)
  let slots = Memo.create 16 in
  let dim = Expr.dim_memoized () in
  let next = ref d0 in
  let slot_list =
    List.filter_map
      (fun a ->
        match a with
        | Expr.Agg (_, _, value, _) ->
            let sdim = dim value in
            let s = { msg_off = !next; res_off = !next + sdim; sdim } in
            next := !next + (2 * sdim);
            Memo.add slots a s;
            Some (a, s, value)
        | _ -> None)
      (collect_aggs sep)
  in
  let feature_dim = !next in
  let scratch d =
    let off = !next in
    next := off + d;
    off
  in
  let compile = compile slots dim ~scratch in
  let depth = Expr.agg_depth_memoized () in
  let schedule =
    Array.init (depth sep) (fun i ->
        let here = List.filter (fun (a, _, _) -> depth a = i + 1) slot_list in
        {
          slots = Array.of_list (List.map (fun (_, s, _) -> s) here);
          messages = Array.of_list (List.map (fun (_, _, value) -> compile value) here);
        })
  in
  let output = compile sep in
  let stride = !next in
  (* The exported layers see rows of [feature_dim] floats; the compiled
     writers want [stride]. *)
  let widen f =
    let row = Array.make stride 0.0 in
    Array.blit f 0 row 0 feature_dim;
    row
  in
  (* The same rounds as Func layers, for the exported expression only. *)
  let message_layer t r =
    Func.custom ~name:(Printf.sprintf "nf-msg-%d" t) ~in_dims:[ feature_dim; feature_dim ]
      ~out_dim:feature_dim (fun args ->
        match args with
        | [ self; _nbsum ] ->
            let row = widen self in
            write_messages r row 0;
            Array.sub row 0 feature_dim
        | _ -> assert false)
  in
  let collect_layer t r =
    Func.custom ~name:(Printf.sprintf "nf-col-%d" t) ~in_dims:[ feature_dim; feature_dim ]
      ~out_dim:feature_dim (fun args ->
        match args with
        | [ self; nbsum ] ->
            let out = Vec.copy self in
            Array.iter (fun s -> Array.blit nbsum s.msg_off out s.res_off s.sdim) r.slots;
            out
        | _ -> assert false)
  in
  let layers =
    List.concat
      (List.mapi (fun i r -> [ message_layer (i + 1) r; collect_layer (i + 1) r ])
         (Array.to_list schedule))
  in
  let out_dim = dim sep in
  let output_layer =
    Func.custom ~name:"nf-out" ~in_dims:[ feature_dim ] ~out_dim (fun args ->
        match args with
        | [ f ] ->
            let out = Vec.zeros out_dim in
            output (widen f) 0 out 0;
            out
        | _ -> assert false)
  in
  (* Normal-form expression: embed labels, then alternate layers. *)
  let x = Builder.x1 and y = Builder.x2 in
  let embed =
    Func.custom ~name:"nf-embed" ~in_dims:[ d0 ] ~out_dim:feature_dim (fun args ->
        match args with
        | [ l ] ->
            let f = Vec.zeros feature_dim in
            Array.blit l 0 f 0 d0;
            f
        | _ -> assert false)
  in
  let init v = Expr.Apply (embed, [ Builder.labels ~dim:d0 v ]) in
  let rec stack layers (prev_x, prev_y) =
    match layers with
    | [] -> prev_x
    | layer :: rest ->
        let step ~self ~other ~sv ~ov =
          let nbsum = Expr.Agg (Agg.sum feature_dim, [ ov ], other, Expr.Edge (sv, ov)) in
          Expr.Apply (layer, [ self; nbsum ])
        in
        stack rest
          ( step ~self:prev_x ~other:prev_y ~sv:x ~ov:y,
            step ~self:prev_y ~other:prev_x ~sv:y ~ov:x )
  in
  let normal_expr = Expr.Apply (output_layer, [ stack layers (init x, init y) ]) in
  {
    d0;
    reads_labels = labels_used > 0;
    feature_dim;
    stride;
    out_dim;
    schedule;
    output;
    normal_expr;
  }

let of_vertex_expr e = Trace.with_span "layer" (fun () -> of_vertex_expr_untraced e)

let to_expr nf = nf.normal_expr

let n_rounds nf = Array.length nf.schedule

let n_layers nf = 2 * n_rounds nf

let feature_dim nf = nf.feature_dim

(* Layered evaluation over all feature rows at once: one row-major
   [float array], [stride] floats per vertex, updated in place.
   Round t first writes every vertex's depth-t messages, then sums them
   over the CSR rows into the depth-t result slots. Each sum starts from
   0.0 and adds the neighbours in adjacency order: the same additions in
   the same order as a full-width [Vec.add_inplace] neighbour sum, so the
   result is bit-identical to evaluating [to_expr]. The deadline is
   checked once per round and every 4,096 vertices of each pass. A label
   beyond the graph's dimension fails before any work, with the join's
   [Expr.Type_error]. *)
let eval_untraced ~deadline nf g =
  let n = Graph.n_vertices g in
  if nf.reads_labels && n > 0 && nf.d0 > Graph.label_dim g then
    raise
      (Expr.Type_error
         (Printf.sprintf "lab%d: graph has label dimension %d" (nf.d0 - 1) (Graph.label_dim g)));
  let fd = nf.stride in
  let data = Array.make (n * fd) 0.0 in
  let { Graph.Csr.offsets; adjacency; labels; _ } = Graph.csr g in
  if nf.reads_labels then begin
    for v = 0 to n - 1 do
      for i = 0 to nf.d0 - 1 do
        data.((v * fd) + i) <- Bigarray.Array2.get labels v i
      done
    done
  end;
  let tick v = if v land 4095 = 4095 then Clock.check deadline in
  Array.iter
    (fun r ->
      Clock.check deadline;
      for v = 0 to n - 1 do
        tick v;
        write_messages r data (v * fd)
      done;
      for v = 0 to n - 1 do
        tick v;
        let row = v * fd and first = offsets.(v) and last = offsets.(v + 1) - 1 in
        for i = 0 to Array.length r.slots - 1 do
          let { msg_off; res_off; sdim } = r.slots.(i) in
          for c = 0 to sdim - 1 do
            (* Each component is its own sum, so summing it whole before
               the next one keeps every component's additions. *)
            let acc = ref 0.0 in
            for k = first to last do
              acc := !acc +. data.((adjacency.(k) * fd) + msg_off + c)
            done;
            data.(row + res_off + c) <- !acc
          done
        done
      done)
    nf.schedule;
  let od = nf.out_dim in
  let out = Mat.zeros n od in
  let values = Mat.data out in
  for v = 0 to n - 1 do
    nf.output data (v * fd) values (v * od)
  done;
  out

let eval ?(deadline = None) nf g =
  Trace.with_span "execute.layered" (fun () -> eval_untraced ~deadline nf g)

(* Largest deviation between the original expression and the normal form
   across all vertices of a graph. *)
let max_deviation nf e g =
  let original = Expr.eval_vertexwise g e in
  let normalised = eval nf g in
  let d = ref 0.0 in
  Array.iteri
    (fun v ov -> d := Float.max !d (Vec.linf_dist ov (Mat.row normalised v)))
    original;
  !d

(* --- canonical cache keys ------------------------------------------------ *)

(* The query server caches compiled plans keyed by a canonical rendering of
   the expression: variables are renamed to dense ids (free variables by
   sorted order, bound variables by first structural occurrence under their
   binder), the symmetric atoms E and 1[.=.] / 1[.!=.] print their
   endpoints in canonical-id order, and binder lists print sorted — so
   alpha-equivalent and reordered queries key identically while distinct
   queries cannot collide (the rendering is injective on the canonalised
   term). *)

module Sig_hash = Glql_util.Sig_hash

(* Functions whose parameters we cannot fingerprint (MLPs, opaque customs)
   fall back to a process-wide physical-identity id: sound — two distinct
   opaque functions never share a key — at the price of no cross-query
   sharing unless the nodes are physically shared. Parser-produced
   functions all have structural kinds and never take this path. *)
module Func_tbl = Hashtbl.Make (struct
  type t = Func.t

  let equal = ( == )
  let hash (f : Func.t) = Hashtbl.hash (f.Func.name, f.Func.in_dims, f.Func.out_dim)
end)

let opaque_mutex = Mutex.create ()

let opaque_ids : int Func_tbl.t = Func_tbl.create 16

let opaque_next = ref 0

let opaque_id f =
  Mutex.lock opaque_mutex;
  let id =
    match Func_tbl.find_opt opaque_ids f with
    | Some id -> id
    | None ->
        let id = !opaque_next in
        incr opaque_next;
        Func_tbl.add opaque_ids f id;
        id
  in
  Mutex.unlock opaque_mutex;
  id

let mat_fingerprint m =
  let open Func in
  Sig_hash.of_string_list
    (List.init (Mat.rows m) (fun i -> Sig_hash.of_float_vector ~decimals:12 (Mat.row m i)))

let func_token f =
  let open Func in
  let dims =
    Printf.sprintf "%s>%d"
      (String.concat ";" (List.map string_of_int f.in_dims))
      f.out_dim
  in
  match f.kind with
  | K_concat -> "cat:" ^ dims
  | K_add -> "add:" ^ dims
  | K_product -> "mul:" ^ dims
  | K_scale_by -> "sby:" ^ dims
  | K_scale c -> Printf.sprintf "sc[%.17g]:%s" c dims
  | K_activation a -> Printf.sprintf "act[%s]:%s" (Activation.name a) dims
  | K_linear (w, b) ->
      Printf.sprintf "lin[%s;%s]:%s" (mat_fingerprint w) (Sig_hash.of_float_vector ~decimals:12 b)
        dims
  | K_linear_multi (ws, b) ->
      Printf.sprintf "linm[%s;%s]:%s"
        (String.concat ";" (List.map mat_fingerprint ws))
        (Sig_hash.of_float_vector ~decimals:12 b)
        dims
  | K_mlp _ | K_opaque -> Printf.sprintf "opq[%s#%d]:%s" f.name (opaque_id f) dims

let rec cache_key e = Trace.with_span "normalize" (fun () -> cache_key_untraced e)

and cache_key_untraced e =
  let buf = Buffer.create 256 in
  let bpr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Variable environment: a stack of canonical ids per source variable,
     the head being the innermost binding. *)
  let env : (Expr.var, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let fresh = ref 0 in
  let next_id () =
    let id = !fresh in
    incr fresh;
    id
  in
  let push v id =
    let stack =
      match Hashtbl.find_opt env v with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.replace env v s;
          s
    in
    stack := id :: !stack
  in
  let pop v =
    match Hashtbl.find_opt env v with
    | Some ({ contents = _ :: rest } as s) -> s := rest
    | _ -> ()
  in
  let lookup v =
    match Hashtbl.find_opt env v with
    | Some { contents = id :: _ } -> id
    | _ -> assert false (* every variable is free (pre-pushed) or bound *)
  in
  (* First structural occurrence order of [ys] under this binder, walking
     guard before value and respecting shadowing by inner binders; bound
     variables that never occur are appended in source order (they never
     print, so their relative ids are irrelevant). *)
  let discover ys value guard =
    let seen = ref [] in
    let rec walk shadowed e =
      match e with
      | Expr.Lab (_, x) -> visit shadowed x
      | Expr.Edge (a, b) | Expr.Cmp (_, a, b) ->
          visit shadowed a;
          visit shadowed b
      | Expr.Const _ -> ()
      | Expr.Apply (_, args) -> List.iter (walk shadowed) args
      | Expr.Agg (_, ys', v, g) ->
          let shadowed' = ys' @ shadowed in
          walk shadowed' g;
          walk shadowed' v
    and visit shadowed x =
      if List.mem x ys && (not (List.mem x shadowed)) && not (List.mem x !seen) then
        seen := !seen @ [ x ]
    in
    walk [] guard;
    walk [] value;
    !seen @ List.filter (fun v -> not (List.mem v !seen)) ys
  in
  let rec render e =
    match e with
    | Expr.Lab (j, x) -> bpr "l%d(v%d)" j (lookup x)
    | Expr.Edge (a, b) ->
        let i = lookup a and j = lookup b in
        bpr "E(v%d,v%d)" (min i j) (max i j)
    | Expr.Cmp (op, a, b) ->
        let i = lookup a and j = lookup b in
        bpr "%s(v%d,v%d)" (match op with Expr.Ceq -> "eq" | Expr.Cneq -> "ne") (min i j) (max i j)
    | Expr.Const v ->
        Buffer.add_string buf "c[";
        Array.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            bpr "%.17g" x)
          v;
        Buffer.add_char buf ']'
    | Expr.Apply (f, args) ->
        bpr "%s(" (func_token f);
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_char buf ',';
            render a)
          args;
        Buffer.add_char buf ')'
    | Expr.Agg (th, ys, value, guard) ->
        let order = discover ys value guard in
        let ids = List.map (fun v -> let id = next_id () in push v id; id) order in
        bpr "agg_%s/%d{%s}(" th.Agg.name th.Agg.in_dim
          (String.concat "," (List.map (Printf.sprintf "v%d") (List.sort compare ids)));
        render value;
        Buffer.add_char buf '|';
        render guard;
        Buffer.add_char buf ')';
        List.iter pop order
  in
  List.iter (fun v -> push v (next_id ())) (Expr.free_vars e);
  render e;
  Buffer.contents buf
