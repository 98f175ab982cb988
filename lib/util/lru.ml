(* Bounded LRU map: a hash table from keys to nodes of a doubly-linked
   recency list, [first] being most- and [last] least-recently used. All
   operations are O(1) expected.

   Besides the entry-count capacity, a cache can carry an optional byte
   budget: [put ~bytes] records the caller's size estimate per entry and
   eviction then also runs while the byte total is over budget, so caches
   of wildly differently-sized values (compiled plans vs. full colouring
   histories) are bounded by memory rather than cardinality. *)

type ('k, 'v) node = {
  nkey : 'k;
  mutable nvalue : 'v;
  mutable nbytes : int;
  mutable prev : ('k, 'v) node option;  (* towards [first] (more recent) *)
  mutable next : ('k, 'v) node option;  (* towards [last] (less recent) *)
}

type ('k, 'v) t = {
  cap : int;
  max_bytes : int;  (* 0 = no byte budget *)
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option;
  mutable last : ('k, 'v) node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_bytes = 0) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  if max_bytes < 0 then invalid_arg "Lru.create: max_bytes must be >= 0";
  {
    cap = capacity;
    max_bytes;
    tbl = Hashtbl.create (min capacity 64);
    first = None;
    last = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

let max_bytes t = t.max_bytes

let length t = Hashtbl.length t.tbl

let bytes_used t = t.bytes

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  n.prev <- None;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let push_back t n =
  n.prev <- t.last;
  n.next <- None;
  (match t.last with Some l -> l.next <- Some n | None -> t.first <- Some n);
  t.last <- Some n

let touch t n =
  match t.first with
  | Some f when f == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let get t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some n.nvalue
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t k = Hashtbl.mem t.tbl k

(* Lookup touching neither recency nor the hit/miss counters. *)
let peek t k = Option.map (fun n -> n.nvalue) (Hashtbl.find_opt t.tbl k)

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.nkey;
  t.bytes <- t.bytes - n.nbytes;
  t.evictions <- t.evictions + 1

let evict_last t = match t.last with None -> () | Some n -> drop t n

let over_budget t =
  Hashtbl.length t.tbl > t.cap || (t.max_bytes > 0 && t.bytes > t.max_bytes)

(* [cold:true] inserts (or demotes) the binding at the LRU end instead of
   the front: the entry counts fully against capacity and the byte budget
   but is first in line for eviction — the home of second-class entries
   like superseded-generation colouring seeds. Inserting cold while over
   budget can evict the new entry itself; that is the intended
   semantics (a seed must never displace live entries). *)
let put_at ~cold ?(bytes = 0) t k v =
  let bytes = if bytes < 0 then 0 else bytes in
  if t.max_bytes > 0 && bytes > t.max_bytes then
    (* A value larger than the whole budget is not cacheable; drop any
       stale binding under the key rather than flushing unrelated
       entries to make room that can never suffice. *)
    match Hashtbl.find_opt t.tbl k with Some n -> drop t n | None -> ()
  else begin
    (match Hashtbl.find_opt t.tbl k with
    | Some n ->
        n.nvalue <- v;
        t.bytes <- t.bytes - n.nbytes + bytes;
        n.nbytes <- bytes;
        if cold then begin
          unlink t n;
          push_back t n
        end
        else touch t n
    | None ->
        let n = { nkey = k; nvalue = v; nbytes = bytes; prev = None; next = None } in
        Hashtbl.replace t.tbl k n;
        if cold then push_back t n else push_front t n;
        t.bytes <- t.bytes + bytes);
    while over_budget t && Hashtbl.length t.tbl > 0 do
      evict_last t
    done
  end

let put ?bytes t k v = put_at ~cold:false ?bytes t k v

let put_cold ?bytes t k v = put_at ~cold:true ?bytes t k v

(* Remove a binding without counting a capacity eviction (the caller is
   retiring the entry deliberately, e.g. rekeying a seed). *)
let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.nkey;
      t.bytes <- t.bytes - n.nbytes

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions

let clear t =
  Hashtbl.reset t.tbl;
  t.first <- None;
  t.last <- None;
  t.bytes <- 0

let keys_mru_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.nkey :: acc) n.next
  in
  walk [] t.first

let bindings_mru_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk ((n.nkey, n.nvalue) :: acc) n.next
  in
  walk [] t.first
