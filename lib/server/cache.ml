(* Plan and colouring caches. Plans compile under the cache lock (a
   compile takes microseconds). Every miss that runs a kernel (colour
   refinement, k-WL, a hom profile, a feature matrix) goes through
   [single_flight] instead: the kernel runs with the lock released, so a
   slow refinement never holds up another request's lookups, and a
   second asker for the same key waits for the first one's value rather
   than computing it again — which keeps cache-hit accounting
   deterministic for the end-to-end tests. *)

module Expr = Glql_gel.Expr
module Parser = Glql_gel.Parser
module Optimize = Glql_gel.Optimize
module Normal_form = Glql_gel.Normal_form
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module Count = Glql_hom.Count
module Lru = Glql_util.Lru
module Clock = Glql_util.Clock
module Trace = Glql_util.Trace

type plan = {
  key : string;
  src : string;
  expr : Expr.t;
  layered : Normal_form.t option;
}

(* A superseded-generation colouring kept briefly as the seed for
   incremental recolouring after a MUTATE: the pre-mutation result plus
   the accumulated touched-vertex frontier. Seeds live in the colouring
   LRU under [Seed] keys — counted against the byte budget, inserted cold
   so they are evicted before any live entry, and never exported to a
   snapshot. *)
type seed = {
  seed_base : Cr.result;
  seed_touched_adj : int list;
  seed_touched_lab : int list;
}

type summary = { classes : int; signature : string }

(* A summary slot, filled by the first request that needs it. Two
   domains may both compute it; they store the same value. *)
type memo = summary option Atomic.t

(* A stored colour refinement and the summaries of its colourings, round
   r at index r. The stable colouring is the last round's, at index
   [Cr.rounds]. *)
type cr_entry = { cr : Cr.result; cr_summaries : memo array }

type kwl_entry = { kwl : Kwl.result; kwl_summary : memo }

(* [C_hom (size, profile)]: the hom profile over every free tree with at
   most [size] vertices, the largest size computed so far for the graph.
   Patterns come in size order, so a smaller size is served as a prefix. *)
type coloring = C_cr of cr_entry | C_kwl of kwl_entry | C_seed of seed | C_hom of int * float array

(* Colouring-cache key: the graph's name and registry generation, and
   which kernel's result it holds. *)
type coloring_kind = Cr | Seed | Kwl of int | Hom

type coloring_key = { graph : string; gen : int; kind : coloring_kind }

(* An assembled feature matrix, cached whole so a warm PREDICT (or a
   repeated FEATURIZE/TRAIN on an unchanged graph) skips column
   materialisation entirely. The record mirrors what Featurize.build
   produces, minus its per-build hit counters (Cache compiles before
   Featurize, so the type lives here). Keys embed the registry
   generation like colourings do: a MUTATE or LOAD that bumps the
   generation makes the cached matrix unreachable, and [note_mutation]
   reclaims the superseded entries eagerly. Feature matrices are never
   snapshotted — they are pure derived state, cheap to rebuild relative
   to their footprint. *)
type fm = {
  fm_cols : (string * int) list;
  fm_width : int;
  fm_rows : float array array;
  fm_schema : string;
}

(* (graph name, registry generation, mode, canonical recipe). *)
type feature_key = string * int * string * string

(* A key whose kernel is running right now, outside the lock. *)
type flight = F_coloring of coloring_key | F_feature of feature_key

type t = {
  plans : (string, plan) Lru.t;
  colorings : (coloring_key, coloring) Lru.t;
  features : (feature_key, fm) Lru.t;
  mutex : Mutex.t;
  flights : (flight, unit) Hashtbl.t;
  landed : Condition.t;  (* broadcast whenever a flight ends, value or not *)
  mutable waits : int;  (* lookups that waited on an in-flight key *)
  mutable incremental_recolors : int;
  mutable incremental_fallbacks : int;
}

let default_feature_capacity = 1024

let create ?(plan_bytes = 0) ?(coloring_bytes = 0) ?(feature_bytes = 0) ~plan_capacity
    ~coloring_capacity () =
  {
    plans = Lru.create ~max_bytes:plan_bytes ~capacity:plan_capacity ();
    colorings = Lru.create ~max_bytes:coloring_bytes ~capacity:coloring_capacity ();
    features = Lru.create ~max_bytes:feature_bytes ~capacity:default_feature_capacity ();
    mutex = Mutex.create ();
    flights = Hashtbl.create 8;
    landed = Condition.create ();
    waits = 0;
    incremental_recolors = 0;
    incremental_fallbacks = 0;
  }

(* Size estimates for the byte budgets. These are deliberately coarse —
   upper-bound-ish heap footprints, not exact word counts — because the
   budgets exist to keep eviction proportional to memory, not to meter
   allocations. Plans are dominated by their strings (the expression tree
   is a small multiple of the source); colourings by their int arrays
   (8 bytes a word, plus per-array overhead). *)

let plan_cost (p : plan) = 256 + String.length p.key + (16 * String.length p.src)

let int_array_cost a = 64 + (8 * Array.length a)

let cr_cost r =
  List.fold_left
    (fun acc round -> List.fold_left (fun acc a -> acc + int_array_cost a) acc round)
    256 (Cr.history r)

(* A summary slot once filled: the atomic, the option, the record and a
   32-character hex string. Counted up front, filled or not. *)
let summary_cost = 128

let coloring_cost = function
  | C_cr e -> cr_cost e.cr + (summary_cost * Array.length e.cr_summaries)
  | C_kwl e ->
      List.fold_left (fun acc a -> acc + int_array_cost a) (256 + summary_cost)
        (Kwl.stable_colors e.kwl)
  | C_seed s ->
      cr_cost s.seed_base + (8 * List.length s.seed_touched_adj) + (8 * List.length s.seed_touched_lab)
  | C_hom (_, p) -> 256 + (8 * Array.length p)

let cr_entry r = { cr = r; cr_summaries = Array.init (Cr.rounds r + 1) (fun _ -> Atomic.make None) }

let kwl_entry r = { kwl = r; kwl_summary = Atomic.make None }

let count_classes colors =
  let seen = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
  Hashtbl.length seen

let summary (slot : memo) signature colors =
  match Atomic.get slot with
  | Some s -> s
  | None ->
      let s =
        {
          classes = count_classes colors;
          signature = Digest.to_hex (Digest.string (signature colors));
        }
      in
      Atomic.set slot (Some s);
      s

(* ~8 bytes a cell plus per-row array overhead; the strings and column
   list are noise next to the rows but counted for honesty. *)
let feature_cost (m : fm) =
  Array.fold_left
    (fun acc row -> acc + 64 + (8 * Array.length row))
    (256 + String.length m.fm_schema
    + List.fold_left (fun acc (n, _) -> acc + 32 + String.length n) 0 m.fm_cols)
    m.fm_rows

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let compile key src e =
  Trace.with_span "compile" @@ fun () ->
  let expr = Optimize.optimize e in
  let layered =
    match Expr.free_vars expr with
    | [ _ ] -> ( try Some (Normal_form.of_vertex_expr expr) with _ -> None)
    | _ -> None
  in
  { key; src; expr; layered }

let eval_plan ?(deadline = None) plan g =
  match
    match plan.layered with
    | Some nf -> Normal_form.eval ~deadline nf g
    | None -> Expr.eval_matrix ~deadline g plan.expr
  with
  | m -> Ok m
  | exception Expr.Type_error msg -> Error ("type error: " ^ msg)

(* The one parse-and-compile path of [plan] and [seed_plan]: parse [src]
   and hand [k] its canonical key and a thunk that compiles it. Parse and
   type errors become the message a reply carries. *)
let with_source src k =
  match Parser.parse src with
  | exception Parser.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Expr.Type_error msg -> Error ("type error: " ^ msg)
  | e -> (
      try
        let key = Normal_form.cache_key e in
        k key (fun () -> compile key src e)
      with Expr.Type_error msg -> Error ("type error: " ^ msg))

let plan t src =
  with_source src @@ fun key compile ->
  Trace.with_span "cache_lookup" @@ fun () ->
  with_lock t (fun () ->
      match Lru.get t.plans key with
      | Some p ->
          Trace.annotate "result" "hit";
          Ok (p, `Hit)
      | None ->
          Trace.annotate "result" "miss";
          let p = compile () in
          Lru.put ~bytes:(plan_cost p) t.plans key p;
          Ok (p, `Miss))

(* The one lookup every kernel-running miss goes through. Under the lock,
   a key in flight waits on [landed] and looks again; [find] (an
   [Lru.get], which counts the hit or miss) answers a hit at once; a miss
   marks the key in flight and [compute] runs with the lock released. On
   [Ok w] the owner runs [store w] under the lock; on an exception
   (Clock.Deadline_exceeded included) or an [Error] it stores nothing.
   Either way it then clears the flight and broadcasts. A waiter that
   finds the owner's value reports [`Hit]; one woken to no value checks
   its own deadline and computes the value itself. *)
let single_flight t flight ~deadline ~find ~compute ~store =
  Mutex.lock t.mutex;
  let waited = Hashtbl.mem t.flights flight in
  if waited then t.waits <- t.waits + 1;
  while Hashtbl.mem t.flights flight do
    Condition.wait t.landed t.mutex
  done;
  match find () with
  | Some v ->
      Mutex.unlock t.mutex;
      Ok (v, `Hit)
  | None when waited && Clock.expired deadline ->
      Mutex.unlock t.mutex;
      raise Clock.Deadline_exceeded
  | None ->
      Hashtbl.replace t.flights flight ();
      Mutex.unlock t.mutex;
      Fun.protect
        ~finally:(fun () ->
          with_lock t (fun () ->
              Hashtbl.remove t.flights flight;
              Condition.broadcast t.landed))
        (fun () -> Result.map (fun w -> (with_lock t (fun () -> store w), `Miss)) (compute ()))

(* Colouring kernels never return [Error]. *)
let coloring_flight t key ~deadline ~find ~compute ~store =
  Result.get_ok
    (single_flight t (F_coloring key) ~deadline ~find ~compute:(fun () -> Ok (compute ())) ~store)

let put_coloring t key c = Lru.put ~bytes:(coloring_cost c) t.colorings key c

(* Colouring keys embed the registry generation: a LOAD that replaces a
   name bumps the generation, so entries computed on the old graph are
   unreachable (and age out of the LRU) rather than served stale. *)

let cr_lookup t ~graph_name ~gen ~deadline g =
  let key = { graph = graph_name; gen; kind = Cr } in
  let skey = { key with kind = Seed } in
  (* A MUTATE may have left the superseded colouring as a seed: recolour
     the frontier instead of refining cold. The seed is consumed when the
     recolouring lands, even on a fallback (it cannot help this
     generation any more); a deadline leaves it for the next asker. *)
  coloring_flight t key ~deadline
    ~find:(fun () -> match Lru.get t.colorings key with Some (C_cr e) -> Some e | _ -> None)
    ~compute:(fun () ->
      match with_lock t (fun () -> Lru.peek t.colorings skey) with
      | Some (C_seed s) ->
          let r, incremental =
            Cr.run_incremental ~deadline ~base:s.seed_base ~touched_adj:s.seed_touched_adj
              ~touched_lab:s.seed_touched_lab g
          in
          (r, Some incremental)
      | _ -> (Cr.run ~deadline g, None))
    ~store:(fun (r, seeded) ->
      Option.iter
        (fun incremental ->
          Lru.remove t.colorings skey;
          if incremental then t.incremental_recolors <- t.incremental_recolors + 1
          else t.incremental_fallbacks <- t.incremental_fallbacks + 1)
        seeded;
      let e = cr_entry r in
      put_coloring t key (C_cr e);
      e)

let cr t ~graph_name ~gen ?(deadline = None) g =
  let e, hit = cr_lookup t ~graph_name ~gen ~deadline g in
  (e.cr, hit)

let wl t ~graph_name ~gen ?(deadline = None) ~round g =
  let e, hit = cr_lookup t ~graph_name ~gen ~deadline g in
  let rounds = Cr.rounds e.cr in
  let r = match round with None -> rounds | Some r -> max 0 (min r rounds) in
  let colors = List.hd (Cr.colors_at_round e.cr r) in
  let slot = e.cr_summaries.(r) in
  (e.cr, colors, summary slot Cr.graph_signature colors, hit)

let kwl_lookup t ~graph_name ~gen ~k ~deadline g =
  let key = { graph = graph_name; gen; kind = Kwl k } in
  coloring_flight t key ~deadline
    ~find:(fun () -> match Lru.get t.colorings key with Some (C_kwl e) -> Some e | _ -> None)
    ~compute:(fun () -> Kwl.run_joint ~deadline ~k ~variant:Kwl.Folklore [ g ])
    ~store:(fun r ->
      let e = kwl_entry r in
      put_coloring t key (C_kwl e);
      e)

let kwl t ~graph_name ~gen ~k ?(deadline = None) g =
  let e, hit = kwl_lookup t ~graph_name ~gen ~k ~deadline g in
  (e.kwl, hit)

let kwl_summary t ~graph_name ~gen ~k ?(deadline = None) g =
  let e, hit = kwl_lookup t ~graph_name ~gen ~k ~deadline g in
  (e.kwl, summary e.kwl_summary Kwl.graph_signature (List.hd (Kwl.stable_colors e.kwl)), hit)

let hom t ~graph_name ~gen ~size ?(deadline = None) patterns g =
  let key = { graph = graph_name; gen; kind = Hom } in
  let npat = List.length patterns in
  fst
    (coloring_flight t key ~deadline
       ~find:(fun () ->
         (* A stored profile smaller than [size] is recomputed, and the
            lookup counts neither a hit nor a miss. *)
         match Lru.peek t.colorings key with
         | Some (C_hom (s, _)) when s < size -> None
         | _ -> (
             match Lru.get t.colorings key with
             | Some (C_hom (_, p)) -> Some (Array.sub p 0 npat)
             | _ -> None))
       ~compute:(fun () -> Count.profile ~deadline patterns g)
       ~store:(fun p ->
         put_coloring t key (C_hom (size, p));
         p))

let features t ~graph_name ~gen ~mode ~recipe ?(deadline = None) compute =
  let key = (graph_name, gen, mode, recipe) in
  single_flight t (F_feature key) ~deadline
    ~find:(fun () -> Lru.get t.features key) ~compute ~store:(fun m ->
      Lru.put ~bytes:(feature_cost m) t.features key m;
      m)

(* --- snapshot export / seeding ------------------------------------------ *)

(* Exports read the LRU without touching recency or hit counters, so a
   SAVE is not observable in STATS beyond its own request. *)

let export_plans t =
  with_lock t (fun () ->
      List.map (fun (key, p) -> (key, p.src)) (Lru.bindings_mru_first t.plans))

type exported_coloring =
  | E_cr of { graph_name : string; gen : int; result : Cr.result }
  | E_kwl of { graph_name : string; gen : int; k : int; result : Kwl.result }

(* --- mutation turnover ---------------------------------------------- *)

let merge_touched a b = List.sort_uniq compare (List.rev_append a b)

(* Generation turnover after a MUTATE: the superseded generation's CR
   entry (or an existing unconsumed seed — mutations can stack before
   anyone recolours) becomes the incremental seed for the new
   generation, re-inserted cold so it counts against the byte budget but
   is evicted before any live entry. Stale entries of the old generation
   are unreachable by key, so their bytes are reclaimed eagerly rather
   than left to age out. *)
let note_mutation t ~graph_name ~old_gen ~gen ~touched_adj ~touched_lab =
  with_lock t (fun () ->
      let old_cr = { graph = graph_name; gen = old_gen; kind = Cr } in
      let old_seed = { old_cr with kind = Seed } in
      let seed =
        match Lru.peek t.colorings old_cr with
        | Some (C_cr e) ->
            Some
              {
                seed_base = e.cr;
                seed_touched_adj = List.sort_uniq compare touched_adj;
                seed_touched_lab = List.sort_uniq compare touched_lab;
              }
        | _ -> (
            match Lru.peek t.colorings old_seed with
            | Some (C_seed s) ->
                Some
                  {
                    s with
                    seed_touched_adj = merge_touched s.seed_touched_adj touched_adj;
                    seed_touched_lab = merge_touched s.seed_touched_lab touched_lab;
                  }
            | _ -> None)
      in
      List.iter
        (fun key ->
          if key.graph = graph_name && key.gen = old_gen then Lru.remove t.colorings key)
        (Lru.keys_mru_first t.colorings);
      List.iter
        (fun ((name, g, _, _) as key) ->
          if name = graph_name && g = old_gen then Lru.remove t.features key)
        (Lru.keys_mru_first t.features);
      match seed with
      | None -> ()
      | Some s ->
          let c = C_seed s in
          let key = { graph = graph_name; gen; kind = Seed } in
          Lru.put_cold ~bytes:(coloring_cost c) t.colorings key c)

let export_colorings t =
  with_lock t (fun () ->
      List.filter_map
        (fun ({ graph = graph_name; gen; kind }, c) ->
          match (kind, c) with
          | Cr, C_cr e -> Some (E_cr { graph_name; gen; result = e.cr })
          | Kwl k, C_kwl e -> Some (E_kwl { graph_name; gen; k; result = e.kwl })
          | _ -> None)
        (Lru.bindings_mru_first t.colorings))

(* Seeding is restore-side: insert without bumping hit/miss counters, and
   never clobber an entry the running server already computed. *)

let seed_plan t ~src =
  with_source src @@ fun key compile ->
  let p = compile () in
  with_lock t (fun () ->
      if not (Lru.mem t.plans key) then Lru.put ~bytes:(plan_cost p) t.plans key p);
  Ok key

let seed_coloring t key c =
  with_lock t (fun () ->
      if not (Lru.mem t.colorings key) then Lru.put ~bytes:(coloring_cost c) t.colorings key c)

let seed_cr t ~graph_name ~gen result =
  seed_coloring t { graph = graph_name; gen; kind = Cr } (C_cr (cr_entry result))

let seed_kwl t ~graph_name ~gen ~k result =
  seed_coloring t { graph = graph_name; gen; kind = Kwl k } (C_kwl (kwl_entry result))

let stats t =
  with_lock t (fun () ->
      let seed_entries, seed_bytes =
        List.fold_left
          (fun (n, b) (_, c) ->
            match c with C_seed _ -> (n + 1, b + coloring_cost c) | _ -> (n, b))
          (0, 0)
          (Lru.bindings_mru_first t.colorings)
      in
      [
        ("plan_entries", Lru.length t.plans);
        ("plan_capacity", Lru.capacity t.plans);
        ("plan_hits", Lru.hits t.plans);
        ("plan_misses", Lru.misses t.plans);
        ("plan_evictions", Lru.evictions t.plans);
        ("plan_bytes", Lru.bytes_used t.plans);
        ("plan_byte_budget", Lru.max_bytes t.plans);
        ("coloring_entries", Lru.length t.colorings);
        ("coloring_capacity", Lru.capacity t.colorings);
        ("coloring_hits", Lru.hits t.colorings);
        ("coloring_misses", Lru.misses t.colorings);
        ("coloring_evictions", Lru.evictions t.colorings);
        ("coloring_bytes", Lru.bytes_used t.colorings);
        ("coloring_byte_budget", Lru.max_bytes t.colorings);
        ("feature_entries", Lru.length t.features);
        ("feature_capacity", Lru.capacity t.features);
        ("feature_hits", Lru.hits t.features);
        ("feature_misses", Lru.misses t.features);
        ("feature_evictions", Lru.evictions t.features);
        ("feature_bytes", Lru.bytes_used t.features);
        ("feature_byte_budget", Lru.max_bytes t.features);
        ("seed_entries", seed_entries);
        ("seed_bytes", seed_bytes);
        ("incremental_recolors", t.incremental_recolors);
        ("incremental_fallbacks", t.incremental_fallbacks);
        ("batch_coalesced", t.waits);
      ])

let clear t =
  with_lock t (fun () ->
      Lru.clear t.plans;
      Lru.clear t.colorings;
      Lru.clear t.features)
