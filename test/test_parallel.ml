(* Determinism tests for the multicore execution layer.

   This suite is its own executable, run twice by dune (GLQL_DOMAINS=1 and
   GLQL_DOMAINS=4, see test/dune), so both the sequential fallback and a
   genuinely parallel pool are exercised on every `dune runtest`.  Each
   test compares a kernel under the ambient pool size against the same
   kernel forced through [Pool.sequential]; since the reference never
   depends on the pool, passing under both sizes proves size-1 and size-4
   outputs are identical — colours and counts exactly, floats bit for
   bit. *)

module Pool = Glql_util.Pool
module Rng = Glql_util.Rng
module Mat = Glql_tensor.Mat
module Generators = Glql_graph.Generators
module Cr = Glql_wl.Color_refinement
module Tree = Glql_hom.Tree
module Count = Glql_hom.Count
module Propagate = Glql_gnn.Propagate
module Model = Glql_gnn.Model
module Dataset = Glql_learning.Dataset
module Erm = Glql_learning.Erm

let case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 30) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

let seed_arb = QCheck.(int_bound 1_000_000)

let random_graph seed ~n ~p = Generators.erdos_renyi (Rng.create seed) ~n ~p

let random_mat seed rows cols =
  let rng = Rng.create seed in
  Mat.init rows cols (fun _ _ -> Rng.gaussian rng)

(* Exact float matrix equality (zero tolerance). *)
let mat_eq a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if not (Float.equal (Mat.get a i j) (Mat.get b i j)) then ok := false
    done
  done;
  !ok

let float_array_eq a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* --- pool combinators --------------------------------------------------- *)

let test_size_env () =
  match Sys.getenv_opt "GLQL_DOMAINS" with
  | Some s -> Alcotest.(check int) "size honours GLQL_DOMAINS" (int_of_string s) (Pool.size ())
  | None -> ()

let test_parallel_for () =
  let n = 1000 in
  let par = Array.make n 0 and seq = Array.make n 0 in
  Pool.parallel_for ~n (fun i -> par.(i) <- (i * i) + 1);
  for i = 0 to n - 1 do
    seq.(i) <- (i * i) + 1
  done;
  Alcotest.(check bool) "parallel_for fills every slot" true (par = seq)

let test_parallel_map () =
  let a = Array.init 257 (fun i -> i - 100) in
  Alcotest.(check bool)
    "map matches Array.map" true
    (Pool.parallel_map_array (fun x -> (x * 7) mod 13) a = Array.map (fun x -> (x * 7) mod 13) a)

let test_reduce_order () =
  (* An order-sensitive float combine: only index-order reduction gives
     the sequential fold's bits. *)
  let n = 500 in
  let map i = Float.of_int (i + 1) /. 3.0 in
  let combine acc x = (acc *. 0.75) +. x in
  let par = Pool.parallel_reduce ~n ~init:1.0 ~map ~combine in
  let seq = ref 1.0 in
  for i = 0 to n - 1 do
    seq := combine !seq (map i)
  done;
  Alcotest.(check bool) "reduce combines in index order" true (Float.equal par !seq)

exception Boom

let test_exception () =
  let raised =
    try
      Pool.parallel_for ~n:64 (fun i -> if i = 37 then raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "exceptions propagate to the caller" true raised

(* Every item raises: the first failure stops the job, so the chunks
   claimed after it run nothing (at most one item per participant runs). *)
let test_exception_stops_work () =
  let ran = Atomic.make 0 in
  let raised =
    try
      Pool.parallel_for ~chunk:1 ~n:1000 (fun _ ->
          Atomic.incr ran;
          raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "the failure reaches the caller" true raised;
  Alcotest.(check bool)
    (Printf.sprintf "a failed job stops running items (%d of 1000 ran)" (Atomic.get ran))
    true
    (Atomic.get ran < 10)

let test_nested () =
  let n = 16 in
  let out = Array.make_matrix n n 0 in
  Pool.parallel_for ~n (fun i ->
      Pool.parallel_for ~n (fun j -> out.(i).(j) <- (i * n) + j));
  let expect = Array.init n (fun i -> Array.init n (fun j -> (i * n) + j)) in
  Alcotest.(check bool) "nested regions degrade but compute" true (out = expect)

let test_sequential_restores () =
  let inside = Pool.sequential (fun () -> 41 + 1) in
  Alcotest.(check int) "sequential returns the thunk's value" 42 inside;
  (* After [sequential], parallel regions must work again. *)
  test_parallel_for ()

(* --- WL joint refinement ------------------------------------------------- *)

let prop_run_joint_deterministic =
  qtest "run_joint: pool == sequential (colors, rounds)" seed_arb (fun seed ->
      let corpus =
        List.init 4 (fun i ->
            random_graph (seed + (31 * i)) ~n:(6 + ((seed + i) mod 9)) ~p:0.3)
      in
      let par = Cr.run_joint corpus in
      let seq = Pool.sequential (fun () -> Cr.run_joint corpus) in
      Cr.stable_colors par = Cr.stable_colors seq
      && Cr.rounds par = Cr.rounds seq
      && Cr.history par = Cr.history seq)

let prop_graph_partition_deterministic =
  qtest "graph_partition: pool == sequential" seed_arb (fun seed ->
      let corpus = List.init 6 (fun i -> random_graph (seed + (7 * i)) ~n:8 ~p:0.35) in
      let par = Cr.graph_partition corpus in
      let seq = Pool.sequential (fun () -> Cr.graph_partition corpus) in
      par = seq)

(* One random mutation batch: returns the mutated graph plus the touched
   vertex lists a server-side MUTATE would report (endpoints of every
   edge op — a superset of the vertices whose adjacency actually changed
   is allowed). *)
let random_mutation_batch rng g =
  let n = Glql_graph.Graph.n_vertices g in
  let module G = Glql_graph.Graph in
  let n_ops = 1 + Rng.int rng 6 in
  let adds = ref [] and dels = ref [] and labs = ref [] in
  let t_adj = ref [] and t_lab = ref [] in
  let existing = Array.of_list (G.edges g) in
  for _ = 1 to n_ops do
    match Rng.int rng 3 with
    | 0 ->
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          adds := (u, v) :: !adds;
          t_adj := u :: v :: !t_adj
        end
    | 1 ->
        if Array.length existing > 0 then begin
          let u, v = existing.(Rng.int rng (Array.length existing)) in
          dels := (u, v) :: !dels;
          t_adj := u :: v :: !t_adj
        end
    | _ ->
        let v = Rng.int rng n in
        let value = float_of_int (1 + Rng.int rng 3) in
        labs := (v, [| value |]) :: !labs;
        t_lab := v :: !t_lab
  done;
  let g' = G.mutate g ~add_edges:!adds ~del_edges:!dels ~set_labels:!labs in
  (g', !t_adj, !t_lab)

(* The tentpole property: (mutate batch -> incremental recolor) is
   bit-identical to (rebuild graph -> full refinement) — same colour
   ids, same history, same round count — across chained random
   ADD/DEL/SET_LABEL batches, with each batch seeding the next from the
   previous incremental result.  [frontier_limit:1.0] pins the
   incremental path on (no silent fallback), and runs under both
   GLQL_DOMAINS=1 and 4 via this executable's two runtest invocations. *)
let prop_incremental_recolor_bit_identical =
  qtest ~count:60 "run_incremental == full run (chained mutation batches)" seed_arb
    (fun seed ->
      let rng = Rng.create (seed + 11) in
      let n = 64 + Rng.int rng 65 in
      (* Mix sparse random graphs with homogeneous structured ones:
         cycles and grids stress the class-split paths of the image
         matcher (a mutation on a vertex-transitive graph cracks one
         giant class), random graphs the near-discrete paths. *)
      let g0 =
        match seed mod 3 with
        | 0 -> Generators.cycle n
        | 1 -> Generators.grid 8 (max 8 (n / 8))
        | _ -> random_graph (seed + 1) ~n ~p:0.06
      in
      let base = ref (Cr.run g0) in
      let g = ref g0 in
      let ok = ref true in
      for _batch = 1 to 3 do
        let g', t_adj, t_lab = random_mutation_batch rng !g in
        let full = Cr.run g' in
        let inc, was_incremental =
          Cr.run_incremental ~frontier_limit:1.0 ~base:!base ~touched_adj:t_adj
            ~touched_lab:t_lab g'
        in
        ok :=
          !ok && was_incremental
          && Cr.rounds inc = Cr.rounds full
          && Cr.history inc = Cr.history full
          && Cr.stable_colors inc = Cr.stable_colors full;
        base := inc;
        g := g'
      done;
      !ok)

(* --- hom-count profiles --------------------------------------------------- *)

let trees6 = Tree.all_free_trees_up_to 6

let prop_hom_profile_deterministic =
  qtest "Count.profile: pool == sequential (bit-equal floats)" seed_arb (fun seed ->
      let g = random_graph seed ~n:(5 + (seed mod 8)) ~p:0.4 in
      let par = Count.profile trees6 g in
      let seq = Pool.sequential (fun () -> Count.profile trees6 g) in
      float_array_eq par seq)

let prop_equal_profiles_deterministic =
  qtest "Count.equal_profiles: pool == sequential" seed_arb (fun seed ->
      let g = random_graph seed ~n:8 ~p:0.4 in
      let h = random_graph (seed + 1) ~n:8 ~p:0.4 in
      let par = Count.equal_profiles trees6 g h in
      let seq = Pool.sequential (fun () -> Count.equal_profiles trees6 g h) in
      par = seq)

(* --- matrix kernels ------------------------------------------------------- *)

let prop_mul_deterministic =
  (* 65*40*50 = 130k multiply-adds: well above the parallel threshold. *)
  qtest "Mat.mul: pool == sequential (bit-equal)" seed_arb (fun seed ->
      let a = random_mat seed 65 40 and b = random_mat (seed + 1) 40 50 in
      let par = Mat.mul a b in
      let seq = Pool.sequential (fun () -> Mat.mul a b) in
      mat_eq par seq)

let prop_mul_abt_deterministic =
  qtest "Mat.mul_abt: pool == sequential and == mul with transpose" seed_arb (fun seed ->
      let a = random_mat seed 60 48 and b = random_mat (seed + 1) 55 48 in
      let par = Mat.mul_abt a b in
      let seq = Pool.sequential (fun () -> Mat.mul_abt a b) in
      mat_eq par seq && Mat.equal_approx ~tol:1e-12 par (Mat.mul a (Mat.transpose b)))

(* [Mat.mul] and [Mat.vec_mul] write through in-place kernels ([mul_into],
   row-blocked over the pool above the flop threshold, and [vec_mul_into]).
   Each output cell must equal a plain loop that sums its products in
   ascending k order from 0.0, bit for bit, at any pool size. *)
let test_mul_into_matches_mul () =
  let a = random_mat 5 33 21 and b = random_mat 6 21 27 in
  let naive =
    Mat.init 33 27 (fun i j ->
        let acc = ref 0.0 in
        for k = 0 to 20 do
          acc := !acc +. (Mat.get a i k *. Mat.get b k j)
        done;
        !acc)
  in
  Alcotest.(check bool) "mul_into == plain loop" true (mat_eq (Mat.mul a b) naive)

let test_vec_mul_into_matches () =
  let m = random_mat 7 19 23 in
  let x = Array.init 19 (fun i -> Float.of_int i /. 7.0) in
  let naive =
    Array.init 23 (fun j ->
        let acc = ref 0.0 in
        for k = 0 to 18 do
          acc := !acc +. (x.(k) *. Mat.get m k j)
        done;
        !acc)
  in
  Alcotest.(check bool) "vec_mul_into == plain loop" true (float_array_eq (Mat.vec_mul x m) naive)

let test_equal_approx_short_circuit () =
  let a = Mat.zeros 4 4 and b = Mat.zeros 4 4 in
  Mat.set b 0 0 1.0;
  Alcotest.(check bool) "mismatch detected" false (Mat.equal_approx a b);
  Alcotest.(check bool) "equal matrices still equal" true (Mat.equal_approx a a)

(* --- propagation kernels -------------------------------------------------- *)

let prop_propagate_deterministic =
  qtest "Propagate kernels: pool == sequential (bit-equal)" seed_arb (fun seed ->
      (* 40 vertices x 64 features crosses the parallel-cells threshold. *)
      let g = random_graph seed ~n:40 ~p:0.2 in
      let h = random_mat (seed + 2) 40 64 in
      let pairs =
        [
          (Propagate.sum_neighbors g h, Pool.sequential (fun () -> Propagate.sum_neighbors g h));
          (Propagate.mean_neighbors g h, Pool.sequential (fun () -> Propagate.mean_neighbors g h));
          ( Propagate.mean_neighbors_backward g h,
            Pool.sequential (fun () -> Propagate.mean_neighbors_backward g h) );
          (Propagate.gcn_neighbors g h, Pool.sequential (fun () -> Propagate.gcn_neighbors g h));
          (fst (Propagate.max_neighbors g h), Pool.sequential (fun () -> fst (Propagate.max_neighbors g h)));
        ]
      in
      List.for_all (fun (p, s) -> mat_eq p s) pairs)

(* --- flat kernels vs pre-refactor references ------------------------------ *)

(* The string-key / adjacency-list implementations the flat CSR kernels
   replaced, kept as executable specifications: the library must
   reproduce their outputs bit for bit, under every pool size (this
   executable runs at GLQL_DOMAINS=1 and 4). *)
module Reference = struct
  module Sig_hash = Glql_util.Sig_hash
  module Graph = Glql_graph.Graph

  let joint_color_count colorings =
    let seen = Hashtbl.create 64 in
    List.iter (fun colors -> Array.iter (fun c -> Hashtbl.replace seen c ()) colors) colorings;
    Hashtbl.length seen

  (* Joint colour refinement with decimal string signature keys and
     [Graph.neighbors] walks — the exact pre-flat implementation. *)
  let run_joint graphs =
    let garr = Array.of_list graphs in
    let ng = Array.length garr in
    let offsets = Array.make (ng + 1) 0 in
    for i = 0 to ng - 1 do
      offsets.(i + 1) <- offsets.(i) + Graph.n_vertices garr.(i)
    done;
    let total = offsets.(ng) in
    let owner = Array.make total 0 in
    for i = 0 to ng - 1 do
      Array.fill owner offsets.(i) (Graph.n_vertices garr.(i)) i
    done;
    let interner = Sig_hash.Interner.create () in
    let keys = Array.make total "" in
    let intern_all () =
      let out = Array.init ng (fun gi -> Array.make (Graph.n_vertices garr.(gi)) 0) in
      for idx = 0 to total - 1 do
        let gi = owner.(idx) in
        out.(gi).(idx - offsets.(gi)) <- Sig_hash.Interner.intern interner keys.(idx)
      done;
      Array.to_list out
    in
    for idx = 0 to total - 1 do
      let gi = owner.(idx) in
      let v = idx - offsets.(gi) in
      keys.(idx) <- "L" ^ Sig_hash.of_float_vector (Graph.label garr.(gi) v)
    done;
    let current = ref (intern_all ()) in
    let history = ref [ !current ] in
    let count = ref (joint_color_count !current) in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < total + 1 do
      let colors = Array.of_list !current in
      for idx = 0 to total - 1 do
        let gi = owner.(idx) in
        let v = idx - offsets.(gi) in
        let c = colors.(gi) in
        let nb = Array.map (fun u -> c.(u)) (Graph.neighbors garr.(gi) v) in
        keys.(idx) <- string_of_int c.(v) ^ "|" ^ Sig_hash.of_int_multiset nb
      done;
      let next = intern_all () in
      let count' = joint_color_count next in
      current := next;
      history := next :: !history;
      incr rounds;
      if count' = !count then continue_ := false else count := count'
    done;
    (List.rev !history, !current, !rounds)

  let sum_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let out = Mat.zeros n d in
    for v = 0 to n - 1 do
      Array.iter
        (fun u ->
          for j = 0 to d - 1 do
            Mat.set out v j (Mat.get out v j +. Mat.get h u j)
          done)
        (Graph.neighbors g v)
    done;
    out

  let mean_neighbors g h =
    let out = sum_neighbors g h in
    for v = 0 to Graph.n_vertices g - 1 do
      let deg = Graph.degree g v in
      if deg > 0 then
        for j = 0 to Mat.cols h - 1 do
          Mat.set out v j (Mat.get out v j /. float_of_int deg)
        done
    done;
    out

  let mean_neighbors_backward g dz =
    let n = Graph.n_vertices g and d = Mat.cols dz in
    let out = Mat.zeros n d in
    for u = 0 to n - 1 do
      Array.iter
        (fun v ->
          let inv = 1.0 /. float_of_int (Graph.degree g v) in
          for j = 0 to d - 1 do
            Mat.set out u j (Mat.get out u j +. (inv *. Mat.get dz v j))
          done)
        (Graph.neighbors g u)
    done;
    out

  let max_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let out = Mat.zeros n d in
    let arg = Array.make_matrix n d (-1) in
    for v = 0 to n - 1 do
      let nb = Graph.neighbors g v in
      if Array.length nb > 0 then
        for j = 0 to d - 1 do
          let best = ref nb.(0) in
          Array.iter (fun u -> if Mat.get h u j > Mat.get h !best j then best := u) nb;
          Mat.set out v j (Mat.get h !best j);
          arg.(v).(j) <- !best
        done
    done;
    (out, arg)

  let gcn_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let inv_sqrt_deg =
      Array.init n (fun v -> 1.0 /. sqrt (float_of_int (Graph.degree g v + 1)))
    in
    let out = Mat.zeros n d in
    for v = 0 to n - 1 do
      let self_coef = inv_sqrt_deg.(v) *. inv_sqrt_deg.(v) in
      for j = 0 to d - 1 do
        Mat.set out v j (self_coef *. Mat.get h v j)
      done;
      Array.iter
        (fun u ->
          let coef = inv_sqrt_deg.(v) *. inv_sqrt_deg.(u) in
          for j = 0 to d - 1 do
            Mat.set out v j (Mat.get out v j +. (coef *. Mat.get h u j))
          done)
        (Graph.neighbors g v)
    done;
    out

  let hom_tree_rooted pattern root g =
    let n = Graph.n_vertices g in
    let rec down t parent =
      let children =
        Array.to_list (Graph.neighbors pattern t) |> List.filter (fun u -> u <> parent)
      in
      let child_tables = List.map (fun c -> down c t) children in
      Array.init n (fun v ->
          List.fold_left
            (fun acc table ->
              if acc = 0.0 then 0.0
              else begin
                let s = ref 0.0 in
                Array.iter (fun u -> s := !s +. table.(u)) (Graph.neighbors g v);
                acc *. !s
              end)
            1.0 child_tables)
    in
    down root (-1)

  let hom_tree pattern g =
    Array.fold_left ( +. ) 0.0 (hom_tree_rooted pattern 0 g)

  let profile patterns g = Array.of_list (List.map (fun p -> hom_tree p g) patterns)
end

let prop_wl_matches_reference =
  qtest "flat WL == string-key reference (history, rounds)" seed_arb (fun seed ->
      let corpus =
        List.init 3 (fun i -> random_graph (seed + (11 * i)) ~n:(6 + ((seed + i) mod 9)) ~p:0.3)
      in
      let flat = Cr.run_joint corpus in
      let ref_history, ref_stable, ref_rounds = Reference.run_joint corpus in
      Cr.history flat = ref_history
      && Cr.stable_colors flat = ref_stable
      && Cr.rounds flat = ref_rounds)

let prop_propagate_matches_reference =
  qtest "flat propagate == adjacency-list reference (bit-equal)" seed_arb (fun seed ->
      let g = random_graph seed ~n:40 ~p:0.2 in
      let h = random_mat (seed + 2) 40 64 in
      mat_eq (Propagate.sum_neighbors g h) (Reference.sum_neighbors g h)
      && mat_eq (Propagate.mean_neighbors g h) (Reference.mean_neighbors g h)
      && mat_eq (Propagate.mean_neighbors_backward g h) (Reference.mean_neighbors_backward g h)
      && mat_eq (Propagate.gcn_neighbors g h) (Reference.gcn_neighbors g h)
      &&
      let fo, fa = Propagate.max_neighbors g h in
      let ro, ra = Reference.max_neighbors g h in
      mat_eq fo ro && fa = ra)

let prop_hom_matches_reference =
  qtest "flat hom profile == reference tree DP (bit-equal)" seed_arb (fun seed ->
      let g = random_graph seed ~n:(5 + (seed mod 8)) ~p:0.4 in
      float_array_eq (Count.profile trees6 g) (Reference.profile trees6 g))

(* --- ERM training --------------------------------------------------------- *)

let molecules = Dataset.molecules (Rng.create 4) ~n_graphs:8 ~n_atoms:8 ~n_atom_types:3

let train_once () =
  let model = Model.gin_classifier (Rng.create 8) ~in_dim:3 ~width:8 ~depth:2 ~n_classes:2 in
  Erm.train_graph_classifier ~epochs:2 model molecules ~train_indices:[ 0; 1; 2; 3; 4; 5 ]
    ~test_indices:[ 6; 7 ]

let test_erm_classifier_deterministic () =
  let par = train_once () in
  let seq = Pool.sequential train_once in
  Alcotest.(check bool)
    "losses bit-equal" true
    (List.for_all2 Float.equal par.Erm.losses seq.Erm.losses);
  Alcotest.(check bool)
    "metrics equal" true
    (Float.equal par.Erm.train_metric seq.Erm.train_metric
    && Float.equal par.Erm.test_metric seq.Erm.test_metric)

let regression =
  Dataset.regression_corpus (Rng.create 6) ~n_graphs:8 ~generator:(Dataset.er_generator ~n:8)
    ~target:Dataset.two_walk_count ~target_name:"two-walk"

let regress_once () =
  let model =
    Model.create ~readout:Model.RSum
      ~head:
        (Glql_nn.Mlp.create (Rng.create 7) ~sizes:[ 8; 1 ] ~act:Glql_nn.Activation.Identity
           ~out_act:Glql_nn.Activation.Identity)
      [ Glql_gnn.Layer.gnn101 (Rng.create 7) ~din:1 ~dout:8 ~act:Glql_nn.Activation.Tanh ]
  in
  Erm.train_graph_regressor ~epochs:2 model regression ~train_indices:[ 0; 1; 2; 3; 4 ]
    ~test_indices:[ 5; 6; 7 ]

let test_erm_regressor_deterministic () =
  let par = regress_once () in
  let seq = Pool.sequential regress_once in
  Alcotest.(check bool)
    "losses bit-equal" true
    (List.for_all2 Float.equal par.Erm.losses seq.Erm.losses);
  Alcotest.(check bool)
    "mse equal" true
    (Float.equal par.Erm.train_metric seq.Erm.train_metric
    && Float.equal par.Erm.test_metric seq.Erm.test_metric)

(* --- featurize recipes (protocol v6) ------------------------------------ *)

module SCache = Glql_server.Cache
module SRegistry = Glql_server.Registry
module Featurize = Glql_server.Featurize
module SP = Glql_server.Protocol

(* Schema plus content digest: equal pairs mean every float of the
   feature matrix is bit-identical, column layout included. *)
let featurize_once ~mode ~recipe seed =
  let g = random_graph seed ~n:24 ~p:0.2 in
  let registry = SRegistry.create () in
  let gen = SRegistry.register_prebuilt registry ~name:"r" ~spec:"random" ~gen:0 g in
  let cache = SCache.create ~plan_capacity:16 ~coloring_capacity:8 () in
  let cols =
    match Featurize.parse_recipe recipe with Ok c -> c | Error e -> failwith e
  in
  match Featurize.build ~cache ~graph_name:"r" ~gen mode g cols with
  | Ok b -> (b.Featurize.b_schema, Featurize.row_digest b.Featurize.b_rows)
  | Error (code, msg) -> failwith (code ^ ": " ^ msg)

let vertex_recipe = "deg;wl;hom3;label;gel:agg_sum{x2}([1] | E(x1,x2))"
let graph_recipe = "deg;wl;kwl2;hom3"

let test_featurize_deterministic =
  qtest ~count:15 "featurize: pool == sequential (schema + digest)" seed_arb (fun seed ->
      let par = featurize_once ~mode:SP.Fm_vertex ~recipe:vertex_recipe seed in
      let seq =
        Pool.sequential (fun () -> featurize_once ~mode:SP.Fm_vertex ~recipe:vertex_recipe seed)
      in
      let gpar = featurize_once ~mode:SP.Fm_graph ~recipe:graph_recipe seed in
      let gseq =
        Pool.sequential (fun () -> featurize_once ~mode:SP.Fm_graph ~recipe:graph_recipe seed)
      in
      par = seq && gpar = gseq)

(* --- GEL analyses across domains ------------------------------------------- *)

module Expr = Glql_gel.Expr
module Parser = Glql_gel.Parser

(* A random GEL source over x1..x3 with x1 free, and its dimension (add
   and product need equal argument dimensions). *)
let random_gel_source rng =
  let var i = Printf.sprintf "x%d" i in
  let rec go depth x =
    let others = List.filter (fun v -> v <> x) [ 1; 2; 3 ] in
    let other () = List.nth others (Rng.int rng 2) in
    if depth = 0 then
      match Rng.int rng 4 with
      | 0 -> (Printf.sprintf "lab%d(%s)" (Rng.int rng 2) (var x), 1)
      | 1 -> (Printf.sprintf "[%d; %d]" (Rng.int rng 5) (Rng.int rng 5), 2)
      | 2 -> (Printf.sprintf "1[%s!=%s]" (var x) (var (other ())), 1)
      | _ -> (Printf.sprintf "E(%s,%s)" (var x) (var (other ())), 1)
    else
      match Rng.int rng 6 with
      | 0 ->
          let a, d = go (depth - 1) x in
          (Printf.sprintf "relu(scale(-0.5)(%s))" a, d)
      | 1 ->
          let (a, da), (b, db) = (go (depth - 1) x, go (depth - 1) x) in
          if da = db then
            (Printf.sprintf "%s(%s, %s)" (if Rng.int rng 2 = 0 then "add" else "product") a b, da)
          else (Printf.sprintf "concat(%s, %s)" a b, da + db)
      | 2 | 3 ->
          let y = other () in
          let a, d = go (depth - 1) y in
          let agg = List.nth [ "sum"; "mean"; "max" ] (Rng.int rng 3) in
          (Printf.sprintf "agg_%s{%s}(%s | E(%s,%s))" agg (var y) a (var x) (var y), d)
      | 4 ->
          (* An unguarded aggregation over every vertex. *)
          let y = other () in
          let a, d = go (depth - 1) y in
          (Printf.sprintf "concat(lab0(%s), agg_sum{%s}(%s | [1]))" (var x) (var y) a, d + 1)
      | _ -> go (depth - 1) x
  in
  fst (go (1 + Rng.int rng 3) 1)

(* The pool's domains (four under GLQL_DOMAINS=4) parse, analyse and
   evaluate parser-built expressions at the same time: every result
   matches a sequential run bit for bit. *)
let test_gel_concurrent_analyses =
  qtest ~count:10 "gel: concurrent parse/dim/free_vars/eval == sequential" seed_arb (fun seed ->
      let rng = Rng.create seed in
      let g =
        Glql_graph.Graph.with_one_hot_labels (random_graph seed ~n:6 ~p:0.4)
          (Array.init 6 (fun _ -> Rng.int rng 2))
          ~n_colors:2
      in
      let sources = Array.init 64 (fun _ -> random_gel_source rng) in
      let analyse src =
        let e = Parser.parse src in
        (Expr.dim e, Expr.free_vars e, (Expr.eval g e).Expr.tdata)
      in
      let par = Pool.parallel_map_array analyse sources in
      let seq = Pool.sequential (fun () -> Array.map analyse sources) in
      Array.for_all2
        (fun (d, fv, t) (d', fv', t') ->
          d = d' && fv = fv' && Array.for_all2 float_array_eq t t')
        par seq)

(* --- single-flight cache ---------------------------------------------------- *)

module Clock = Glql_util.Clock
module Trace = Glql_util.Trace
module Graph = Glql_graph.Graph

let spec_graph spec = match SRegistry.graph_of_spec spec with Ok g -> g | Error e -> failwith e

let cache_stat cache name = List.assoc name (SCache.stats cache)

let fresh_cache () = SCache.create ~plan_capacity:16 ~coloring_capacity:8 ()

(* Run [f] on a new domain. Pool entry points belong to the main domain,
   so the domain's kernels run sequentially. *)
let spawn f = Domain.spawn (fun () -> Pool.sequential f)

(* Wait until the cache has counted [n] colouring misses: an asker's miss
   is counted as it marks its key in flight. *)
let await_misses cache n =
  let t0 = Clock.now_ns () in
  while cache_stat cache "coloring_misses" < n do
    if Clock.ns_to_s (Clock.elapsed_ns t0) > 10.0 then Alcotest.fail "no asker claimed the key";
    Domain.cpu_relax ()
  done

(* A cold k-WL runs with the cache lock released: while it is still
   running on another domain, a cold plan lookup returns at once. *)
let test_lookup_beside_cold_kwl () =
  let cache = fresh_cache () in
  let g = spec_graph "grid12x12" in
  let started = Atomic.make false and finished = Atomic.make false in
  let owner =
    spawn (fun () ->
        Atomic.set started true;
        ignore (SCache.kwl cache ~graph_name:"g" ~gen:0 ~k:2 g);
        Atomic.set finished true)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.1;
  let t0 = Clock.now_ns () in
  let plan = SCache.plan cache "agg_sum{x2}(lab0(x2) | E(x1,x2))" in
  let ms = Clock.ns_to_ms (Clock.elapsed_ns t0) in
  let kwl_running = not (Atomic.get finished) in
  Domain.join owner;
  Alcotest.(check bool) (Printf.sprintf "plan lookup under 50 ms (took %.1f ms)" ms) true (ms < 50.0);
  Alcotest.(check bool) "k-WL still running when the plan returned" true kwl_running;
  Alcotest.(check bool) "plan compiled" true (Result.is_ok plan)

(* Two domains ask for one k-WL key: one kernel run, one [`Miss] and one
   [`Hit], and one lookup counted as waiting. *)
let test_two_askers_one_compute () =
  let cache = fresh_cache () in
  let g = spec_graph "grid10x10" in
  let refines = Atomic.make 0 in
  let sink =
    Trace.make_sink ~on_span:(fun sp -> if sp.Trace.name = "kwl.refine" then Atomic.incr refines) ()
  in
  let ask () =
    Trace.with_sink sink (fun () -> SCache.kwl cache ~graph_name:"g" ~gen:0 ~k:2 g)
  in
  let first = spawn ask in
  await_misses cache 1;
  let r2, tag2 = Pool.sequential ask in
  let r1, tag1 = Domain.join first in
  Alcotest.(check int) "one kwl.refine span" 1 (Atomic.get refines);
  Alcotest.(check bool) "first asker computed" true (tag1 = `Miss);
  Alcotest.(check bool) "second asker hit" true (tag2 = `Hit);
  Alcotest.(check bool) "same result" true (r1 == r2);
  Alcotest.(check int) "one lookup waited" 1 (cache_stat cache "batch_coalesced")

(* An owner whose deadline fires caches nothing: a CR seed it was
   recolouring from stays for the next asker, and a waiter on a failed
   owner computes the value itself. *)
let test_failed_owner_caches_nothing () =
  let cache = fresh_cache () in
  let g = spec_graph "cycle100" in
  ignore (SCache.cr cache ~graph_name:"g" ~gen:0 g);
  SCache.note_mutation cache ~graph_name:"g" ~old_gen:0 ~gen:1 ~touched_adj:[ 0; 2 ] ~touched_lab:[];
  let g' = Graph.mutate g ~add_edges:[ (0, 2) ] ~del_edges:[] ~set_labels:[] in
  let expired = Some (Int64.sub (Clock.now_ns ()) 1L) in
  (match SCache.cr cache ~graph_name:"g" ~gen:1 ~deadline:expired g' with
  | _ -> Alcotest.fail "an expired owner must raise"
  | exception Clock.Deadline_exceeded -> ());
  Alcotest.(check int) "seed still present" 1 (cache_stat cache "seed_entries");
  Alcotest.(check int) "nothing but the seed cached" 1 (cache_stat cache "coloring_entries");
  let r, tag = SCache.cr cache ~graph_name:"g" ~gen:1 g' in
  Alcotest.(check bool) "next asker computes" true (tag = `Miss);
  Alcotest.(check int) "seed consumed" 0 (cache_stat cache "seed_entries");
  Alcotest.(check int) "recoloured from the seed" 1
    (cache_stat cache "incremental_recolors" + cache_stat cache "incremental_fallbacks");
  Alcotest.(check bool) "same colours as a cold run" true
    (Cr.stable_colors r = Cr.stable_colors (Cr.run g'));
  (* A waiter on an owner that runs out of time. *)
  let h = spec_graph "grid10x10" in
  let misses = cache_stat cache "coloring_misses" in
  let owner =
    spawn (fun () ->
        match SCache.kwl cache ~graph_name:"h" ~gen:0 ~k:2 ~deadline:(Clock.deadline_after 0.1) h with
        | _ -> false
        | exception Clock.Deadline_exceeded -> true)
  in
  await_misses cache (misses + 1);
  let waiter = Pool.sequential (fun () -> SCache.kwl cache ~graph_name:"h" ~gen:0 ~k:2 h) in
  Alcotest.(check bool) "owner's deadline fired" true (Domain.join owner);
  Alcotest.(check int) "the waiter waited" 1 (cache_stat cache "batch_coalesced");
  Alcotest.(check bool) "the waiter computed" true (snd waiter = `Miss);
  Alcotest.(check bool) "the value is cached now" true
    (snd (SCache.kwl cache ~graph_name:"h" ~gen:0 ~k:2 h) = `Hit)

let () =
  Alcotest.run "glql-parallel"
    [
      ( Printf.sprintf "pool (size %d)" (Pool.size ()),
        [
          case "size env" test_size_env;
          case "parallel_for" test_parallel_for;
          case "parallel_map_array" test_parallel_map;
          case "parallel_reduce order" test_reduce_order;
          case "exception propagation" test_exception;
          case "a failed job stops running items" test_exception_stops_work;
          case "nested regions" test_nested;
          case "sequential escape hatch" test_sequential_restores;
        ] );
      ( "wl",
        [
          prop_run_joint_deterministic;
          prop_graph_partition_deterministic;
          prop_incremental_recolor_bit_identical;
        ] );
      ( "hom",
        [ prop_hom_profile_deterministic; prop_equal_profiles_deterministic ] );
      ( "mat",
        [
          prop_mul_deterministic;
          prop_mul_abt_deterministic;
          case "mul_into" test_mul_into_matches_mul;
          case "vec_mul_into" test_vec_mul_into_matches;
          case "equal_approx" test_equal_approx_short_circuit;
        ] );
      ("propagate", [ prop_propagate_deterministic ]);
      ( "flat-core",
        [
          prop_wl_matches_reference;
          prop_propagate_matches_reference;
          prop_hom_matches_reference;
        ] );
      ( "erm",
        [
          case "graph classifier deterministic" test_erm_classifier_deterministic;
          case "graph regressor deterministic" test_erm_regressor_deterministic;
        ] );
      ("featurize", [ test_featurize_deterministic ]);
      ("gel", [ test_gel_concurrent_analyses ]);
      ( "single-flight cache",
        [
          case "lookup beside a cold k-WL" test_lookup_beside_cold_kwl;
          case "two askers, one compute" test_two_askers_one_compute;
          case "a failed owner caches nothing" test_failed_owner_caches_nothing;
        ] );
    ]
