(* Colour refinement (1-dimensional Weisfeiler-Leman, slide 50).

   Joint runs: all graphs are refined together against one signature
   interner, so colours are comparable across graphs and rounds proceed in
   lockstep until the *joint* partition over all vertices stabilises.
   Because a vertex's refinement key only mentions its own graph, a joint
   run restricted to one graph equals a solo run of that graph — which is
   why comparing stable colourings of a joint run decides CR-equivalence.

   Each round runs in two phases so a corpus refines in parallel without
   losing determinism: phase one builds every vertex's signature key
   (pure, embarrassingly parallel over all (graph, vertex) items via the
   domain pool); phase two interns the keys sequentially in graph-major
   vertex order.  Interned ids depend only on the first-encounter order of
   distinct keys, which phase two fixes, so colourings are identical for
   every pool size.

   Signature keys are binary: a '\001' tag byte, the vertex's own colour
   as little-endian 64-bit, then the sorted neighbour colours likewise —
   a fixed-width injective encoding of exactly the (own colour, neighbour
   multiset) pair the old decimal strings spelled out, read straight off
   the graph's flat CSR view. Two keys are equal iff the old string keys
   were (round-0 label keys keep their 'L' prefix, disjoint from the
   tag), so interned colour sequences — and hence colourings — are
   bit-identical to the string implementation. *)

module Sig_hash = Glql_util.Sig_hash
module Graph = Glql_graph.Graph
module Pool = Glql_util.Pool
module Trace = Glql_util.Trace
module Clock = Glql_util.Clock

(* Closure-free ascending int sort, shared with the k-WL tuple-key path
   via [Glql_util.Int_sort] — output-equivalent to [Array.sort
   Int.compare], so colourings are unchanged. *)
let sort_ints = Glql_util.Int_sort.sort

type result = {
  graphs : Graph.t list;
  history : int array list list;
  (* [history] is a list of rounds; each round is a list of per-graph colour
     arrays, in the order of [graphs]. Round 0 is the initial colouring. *)
  stable : int array list;
  rounds : int;
}

let joint_color_count colorings =
  let seen = Hashtbl.create 64 in
  List.iter (fun colors -> Array.iter (fun c -> Hashtbl.replace seen c ()) colors) colorings;
  Hashtbl.length seen

let run_joint ?max_rounds ?(deadline = None) graphs =
  Trace.with_span "wl.refine" @@ fun () ->
  let garr = Array.of_list graphs in
  let ng = Array.length garr in
  let offsets = Array.make (ng + 1) 0 in
  for i = 0 to ng - 1 do
    offsets.(i + 1) <- offsets.(i) + Graph.n_vertices garr.(i)
  done;
  let total = offsets.(ng) in
  (* owner.(idx) = index of the graph holding flat item idx. *)
  let owner = Array.make total 0 in
  for i = 0 to ng - 1 do
    Array.fill owner offsets.(i) (Graph.n_vertices garr.(i)) i
  done;
  let interner = Sig_hash.Interner.create () in
  let keys = Array.make total "" in
  (* Intern this round's keys in flat (graph-major) order into fresh
     per-graph colour arrays — the sequential phase of each round. *)
  let intern_all () =
    let out = Array.init ng (fun gi -> Array.make (Graph.n_vertices garr.(gi)) 0) in
    for idx = 0 to total - 1 do
      let gi = owner.(idx) in
      out.(gi).(idx - offsets.(gi)) <- Sig_hash.Interner.intern interner keys.(idx)
    done;
    Array.to_list out
  in
  (* Flat views, built (or fetched from the memo) once per run. *)
  let csrs = Array.map Graph.csr garr in
  Pool.parallel_for ~n:total (fun idx ->
      let gi = owner.(idx) in
      let v = idx - offsets.(gi) in
      keys.(idx) <- "L" ^ Sig_hash.of_float_vector (Graph.label garr.(gi) v));
  let current = ref (intern_all ()) in
  let history = ref [ !current ] in
  let count = ref (joint_color_count !current) in
  let rounds = ref 0 in
  let limit = match max_rounds with Some m -> m | None -> total + 1 in
  let continue_ = ref true in
  while !continue_ && !rounds < limit do
    (* Cooperative cancellation: one clock read per round keeps a
       per-request timeout binding on arbitrarily deep refinements. *)
    Clock.check deadline;
    Trace.with_span ~args:[ ("round", string_of_int !rounds) ] "wl.round" @@ fun () ->
    let colors = Array.of_list !current in
    Pool.parallel_for ~n:total (fun idx ->
        let gi = owner.(idx) in
        let v = idx - offsets.(gi) in
        let c = colors.(gi) in
        let csr = csrs.(gi) in
        let row = csr.Graph.Csr.offsets.(v) in
        let deg = csr.Graph.Csr.offsets.(v + 1) - row in
        let nb = Array.make deg 0 in
        for j = 0 to deg - 1 do
          nb.(j) <- Array.unsafe_get c (Array.unsafe_get csr.Graph.Csr.adjacency (row + j))
        done;
        sort_ints nb;
        let b = Bytes.create (9 + (8 * deg)) in
        Bytes.unsafe_set b 0 '\001';
        Bytes.set_int64_le b 1 (Int64.of_int c.(v));
        for j = 0 to deg - 1 do
          Bytes.set_int64_le b (9 + (8 * j)) (Int64.of_int (Array.unsafe_get nb j))
        done;
        keys.(idx) <- Bytes.unsafe_to_string b);
    let next = intern_all () in
    let count' = joint_color_count next in
    current := next;
    history := next :: !history;
    incr rounds;
    if count' = !count then continue_ := false else count := count'
  done;
  { graphs; history = List.rev !history; stable = !current; rounds = !rounds }

let run ?max_rounds ?deadline g = run_joint ?max_rounds ?deadline [ g ]

(* ------------------------------------------------------------------ *)
(* Incremental frontier recoloring (DESIGN §13).

   A cold solo run's colour ids have a rigid structure: every round's
   keys are fresh strings (round-0 keys carry the 'L' prefix; a round-r+1
   key embeds the vertex's own round-r colour, and own-colour blocks are
   disjoint across rounds), so the shared interner hands round r a
   contiguous id block [B_r, B_r + k_r) with B_0 = 0 and
   B_{r+1} = B_r + k_r, and within the round a class's id is B_r plus the
   first-encounter rank of the class in vertex order.  Reproducing a cold
   run bit-identically therefore reduces to reproducing each round's
   partition plus that canonical rank assignment — no interner needed.

   Given the old result and the touched vertices of a mutation batch, the
   per-round dirty cover is D = T_adj ∪ Δ ∪ N(Δ): vertices with changed
   adjacency (their key is built from a different neighbour set every
   round), vertices whose class failed to match the old partition last
   round, and their new-graph neighbours (their key mentions an unmatched
   colour).  Every other vertex is clean: its new key is the image of its
   old key under the (bijective on matched classes) colour
   correspondence, so its class can be read off the old round's colouring
   without materialising the key.  Keys are built only for D, plus one
   key per clean class whose (own colour, degree) signature collides with
   some dirty vertex — equal keys force equal signatures, so
   non-colliding clean classes take a fresh id without any key at all. *)

exception Fall_back

(* Round-(r+1) signature key of [v] from colours [cur] — byte-identical
   to the key [run_joint] builds in its parallel phase. *)
let build_key csr cur v =
  let row = csr.Graph.Csr.offsets.(v) in
  let deg = csr.Graph.Csr.offsets.(v + 1) - row in
  let nb = Array.make deg 0 in
  for j = 0 to deg - 1 do
    nb.(j) <- Array.unsafe_get cur (Array.unsafe_get csr.Graph.Csr.adjacency (row + j))
  done;
  sort_ints nb;
  let b = Bytes.create (9 + (8 * deg)) in
  Bytes.unsafe_set b 0 '\001';
  Bytes.set_int64_le b 1 (Int64.of_int cur.(v));
  for j = 0 to deg - 1 do
    Bytes.set_int64_le b (9 + (8 * j)) (Int64.of_int (Array.unsafe_get nb j))
  done;
  Bytes.unsafe_to_string b

let run_incremental ?max_rounds ?(deadline = None) ?(frontier_limit = 0.25) ~base
    ~touched_adj ~touched_lab g =
  let full () = (run ?max_rounds ~deadline g, false) in
  let n = Graph.n_vertices g in
  match base.graphs with
  | [ g0 ] when Graph.n_vertices g0 = n && n >= 64 -> (
      try
        Trace.with_span ~args:[ ("n", string_of_int n) ] "wl.refine.incremental"
        @@ fun () ->
        (* Old history as per-round arrays, with the block structure
           validated and (B_r, k_r) recovered; anything ill-formed (a
           foreign or corrupt result) falls back to a full run. *)
        let oldh =
          Array.of_list
            (List.map (function [ c ] -> c | _ -> raise Fall_back) base.history)
        in
        let nrounds_old = Array.length oldh in
        if nrounds_old = 0 then raise Fall_back;
        let oldB = Array.make nrounds_old 0 and oldk = Array.make nrounds_old 0 in
        let next_base = ref 0 in
        for r = 0 to nrounds_old - 1 do
          let c = oldh.(r) in
          if Array.length c <> n then raise Fall_back;
          let b = !next_base in
          let seen = Array.make n false in
          let k = ref 0 in
          Array.iter
            (fun id ->
              let off = id - b in
              if off < 0 || off >= n then raise Fall_back;
              if not seen.(off) then begin
                if off <> !k then raise Fall_back;
                seen.(off) <- true;
                incr k
              end)
            c;
          oldB.(r) <- b;
          oldk.(r) <- !k;
          next_base := b + !k
        done;
        let csr = Graph.csr g in
        let t_adj = Array.make n false in
        List.iter
          (fun v -> if v >= 0 && v < n then t_adj.(v) <- true else raise Fall_back)
          touched_adj;
        let t_lab = Array.make n false in
        List.iter
          (fun v -> if v >= 0 && v < n then t_lab.(v) <- true else raise Fall_back)
          touched_lab;
        let cap = max 64 (int_of_float (frontier_limit *. float_of_int n)) in
        (* Image matching between an old round and a new round.  Each old
           class gets at most one {e image} — the new colour its clean
           members were transported to, or the unanimous new colour when
           the class is wholly dirty (clean members of one class always
           share a colour by construction, so only dirty members can
           stray).  A vertex is marked Δ iff its own colour is not its
           class's image, or the image is ill-defined, or two old classes
           claim the same image (the correspondence must stay injective
           for clean-key transport to be invertible).  Marking strays
           per-vertex instead of whole split classes is what keeps the
           frontier proportional to the mutation, not to class sizes. *)
        let match_classes ~dirty ~clean_map oldc ob okk newc =
          let image = Array.make okk (-2) in
          (* -2 = unseen, -1 = poisoned (members disagree) *)
          Array.iteri (fun oc id -> if id >= 0 then image.(oc) <- id) clean_map;
          for v = 0 to n - 1 do
            let oc = oldc.(v) - ob in
            if dirty.(v) && clean_map.(oc) < 0 then
              if image.(oc) = -2 then image.(oc) <- newc.(v)
              else if image.(oc) <> newc.(v) then image.(oc) <- -1
          done;
          let claims = Hashtbl.create (max 16 okk) in
          Array.iter
            (fun id ->
              if id >= 0 then
                Hashtbl.replace claims id (1 + Option.value ~default:0 (Hashtbl.find_opt claims id)))
            image;
          let un = Array.make n false in
          for v = 0 to n - 1 do
            let oc = oldc.(v) - ob in
            let im = image.(oc) in
            un.(v) <-
              im < 0 || newc.(v) <> im
              || Option.value ~default:0 (Hashtbl.find_opt claims im) > 1
          done;
          un
        in
        (* Round 0: label keys.  Unchanged labels keep their old class
           (the old round-0 partition is exactly the label-key partition),
           so one key per clean class plus one per touched vertex
           suffices; ids are first-encounter ranks from 0. *)
        let newc0, k0, delta0 =
          if touched_lab = [] then (Array.copy oldh.(0), oldk.(0), Array.make n false)
          else begin
            let tbl = Hashtbl.create 64 in
            let clean_map = Array.make oldk.(0) (-1) in
            let nextid = ref 0 in
            let c = Array.make n 0 in
            let key_of v = "L" ^ Sig_hash.of_float_vector (Graph.label g v) in
            let intern key =
              match Hashtbl.find_opt tbl key with
              | Some id -> id
              | None ->
                  let id = !nextid in
                  incr nextid;
                  Hashtbl.add tbl key id;
                  id
            in
            for v = 0 to n - 1 do
              if t_lab.(v) then c.(v) <- intern (key_of v)
              else begin
                let oc = oldh.(0).(v) - oldB.(0) in
                let id = clean_map.(oc) in
                if id >= 0 then c.(v) <- id
                else begin
                  let id = intern (key_of v) in
                  clean_map.(oc) <- id;
                  c.(v) <- id
                end
              end
            done;
            (c, !nextid, match_classes ~dirty:t_lab ~clean_map oldh.(0) oldB.(0) oldk.(0) c)
          end
        in
        let limit = match max_rounds with Some m -> m | None -> n + 1 in
        let hist = ref [ newc0 ] in
        let cur = ref newc0 and curk = ref k0 and curb = ref 0 in
        let delta = ref delta0 in
        let rounds = ref 0 in
        let continue_ = ref true in
        while !continue_ && !rounds < limit do
          Clock.check deadline;
          let r = !rounds in
          let refr = min (r + 1) (nrounds_old - 1) in
          let oldc = oldh.(refr) and ob = oldB.(refr) and okk = oldk.(refr) in
          (* Dirty cover for this round. *)
          let dirty = Array.make n false in
          let ndirty = ref 0 in
          let mark v =
            if not dirty.(v) then begin
              dirty.(v) <- true;
              incr ndirty
            end
          in
          let d = !delta in
          for v = 0 to n - 1 do
            if t_adj.(v) then mark v;
            if d.(v) then begin
              mark v;
              let row = csr.Graph.Csr.offsets.(v) in
              let deg = csr.Graph.Csr.offsets.(v + 1) - row in
              for j = 0 to deg - 1 do
                mark csr.Graph.Csr.adjacency.(row + j)
              done
            end
          done;
          if !ndirty > cap then raise Fall_back;
          let dverts = Array.make !ndirty 0 in
          let dpos = Array.make n (-1) in
          let di = ref 0 in
          for v = 0 to n - 1 do
            if dirty.(v) then begin
              dverts.(!di) <- v;
              dpos.(v) <- !di;
              incr di
            end
          done;
          let cur_c = !cur in
          (* Phase 1 (parallel, like run_joint): keys for dirty vertices
             only.  Pure writes to disjoint slots — deterministic for any
             pool size. *)
          let dkeys = Array.make !ndirty "" in
          Pool.parallel_for ~n:!ndirty (fun i ->
              dkeys.(i) <- build_key csr cur_c dverts.(i));
          (* Two-level collision probe for clean classes: (own colour,
             degree), then additionally the sum of neighbour colours.
             Equal keys force equal triples, so a clean class missing at
             either level is provably distinct from every dirty key and
             needs no key materialised.  The first level alone is too
             coarse early on — right after round 0 the colours are only
             degree classes, so nearly every clean class shares a
             (colour, degree) with some dirty vertex and the recolor
             would degenerate into building almost all n keys. *)
          let nbsum v =
            let row = csr.Graph.Csr.offsets.(v) in
            let deg = csr.Graph.Csr.offsets.(v + 1) - row in
            let s = ref 0 in
            for j = 0 to deg - 1 do
              let c = Array.unsafe_get cur_c (Array.unsafe_get csr.Graph.Csr.adjacency (row + j)) in
              (* Commutative but well-spread: raw colour sums cluster in
                 a narrow band early on (few distinct colours, similar
                 degrees), so mix each colour non-linearly before
                 summing — a linear map would preserve exactly the raw
                 sums' collisions.  Wrap-around is fine; the sum only
                 ever gates whether a full key is built. *)
              let x = (c + 1) * 0x2545F4914F6CDD1D in
              s := !s + (x lxor (x lsr 29))
            done;
            !s
          in
          let dsig = Hashtbl.create (max 16 !ndirty) in
          let dsig2 = Hashtbl.create (max 16 !ndirty) in
          Array.iter
            (fun v ->
              let cd = (cur_c.(v), csr.Graph.Csr.degrees.(v)) in
              Hashtbl.replace dsig cd ();
              Hashtbl.replace dsig2 (cur_c.(v), csr.Graph.Csr.degrees.(v), nbsum v) ())
            dverts;
          (* Phase 2 (sequential): canonical id assignment in vertex
             order from B_{r+1} = B_r + k_r. *)
          let nb = !curb + !curk in
          let tbl = Hashtbl.create (max 16 (2 * !ndirty)) in
          let clean_map = Array.make okk (-1) in
          let nextid = ref nb in
          let newc = Array.make n 0 in
          for v = 0 to n - 1 do
            if dirty.(v) then begin
              let key = dkeys.(dpos.(v)) in
              match Hashtbl.find_opt tbl key with
              | Some id -> newc.(v) <- id
              | None ->
                  let id = !nextid in
                  incr nextid;
                  Hashtbl.add tbl key id;
                  newc.(v) <- id
            end
            else begin
              let oc = oldc.(v) - ob in
              let id = clean_map.(oc) in
              if id >= 0 then newc.(v) <- id
              else begin
                let id =
                  if
                    Hashtbl.mem dsig (cur_c.(v), csr.Graph.Csr.degrees.(v))
                    && Hashtbl.mem dsig2 (cur_c.(v), csr.Graph.Csr.degrees.(v), nbsum v)
                  then begin
                    (* A dirty key could collide: settle it by string. *)
                    let key = build_key csr cur_c v in
                    match Hashtbl.find_opt tbl key with
                    | Some id -> id
                    | None ->
                        let id = !nextid in
                        incr nextid;
                        Hashtbl.add tbl key id;
                        id
                  end
                  else begin
                    (* No dirty vertex shares this (colour, degree,
                       neighbour-colour-sum) and distinct clean classes
                       have distinct keys, so the class is provably
                       fresh — no key materialised. *)
                    let id = !nextid in
                    incr nextid;
                    id
                  end
                in
                clean_map.(oc) <- id;
                newc.(v) <- id
              end
            end
          done;
          let newk = !nextid - nb in
          let un = match_classes ~dirty ~clean_map oldc ob okk newc in
          let prevk = !curk in
          cur := newc;
          curk := newk;
          curb := nb;
          delta := un;
          hist := newc :: !hist;
          incr rounds;
          if newk = prevk then continue_ := false
        done;
        let history = List.rev_map (fun c -> [ c ]) !hist in
        ({ graphs = [ g ]; history; stable = [ !cur ]; rounds = !rounds }, true)
      with Fall_back -> full ())
  | _ -> full ()

let stable_colors result = result.stable

let history result = result.history

let rounds result = result.rounds

let graph_signature colors = Sig_hash.of_int_multiset colors

(* Graph-level CR-equivalence: equal stable colour multisets in a joint
   run (slide 50: "a graph gets a colour based on the multiset of colours
   of all its vertices"). *)
let equivalent_graphs g h =
  match (run_joint [ g; h ]).stable with
  | [ cg; ch ] -> graph_signature cg = graph_signature ch
  | _ -> assert false

(* Partition a corpus of graphs by CR graph colour. *)
let graph_partition graphs =
  let result = run_joint graphs in
  let sigs = Array.of_list (List.map graph_signature result.stable) in
  Partition.group ~n:(Array.length sigs) (fun i -> sigs.(i))

(* Partition all (graph, vertex) items of a corpus by stable CR colour.
   Items are ordered graph-major: graph 0's vertices first, etc. *)
let vertex_partition graphs =
  let result = run_joint graphs in
  let all = Array.concat (List.map Array.copy result.stable) in
  Partition.group ~n:(Array.length all) (fun i -> string_of_int all.(i))

(* Rebuild a result from its persisted parts (the snapshot store's
   decode path). The stable colouring is the last round of the history,
   so only the history travels; shape mismatches raise so a corrupt
   snapshot cannot produce a result the accessors would crash on. *)
let of_parts ~graphs ~history =
  (match history with
  | [] -> invalid_arg "Color_refinement.of_parts: empty history"
  | _ -> ());
  let sizes = List.map Graph.n_vertices graphs in
  List.iter
    (fun round ->
      if List.length round <> List.length graphs then
        invalid_arg "Color_refinement.of_parts: round arity mismatch";
      List.iter2
        (fun colors n ->
          if Array.length colors <> n then
            invalid_arg "Color_refinement.of_parts: colour array length mismatch")
        round sizes)
    history;
  let rounds = List.length history - 1 in
  let stable = List.nth history rounds in
  { graphs; history; stable; rounds }

(* Reusable-handle accessors: a cached [result] can answer any
   smaller-round request from its history without recomputation. *)
let n_classes result = joint_color_count result.stable

let colors_at_round result round =
  let r = max 0 (min round result.rounds) in
  List.nth result.history r
