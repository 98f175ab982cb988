(* Unit and property tests for glql_util: SplitMix64, signatures,
   interning, tables. *)

open Helpers
module Rng = Glql_util.Rng
module Sig_hash = Glql_util.Sig_hash
module Tbl = Glql_util.Tbl
module Lru = Glql_util.Lru
module Clock = Glql_util.Clock

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different streams" false (Rng.next_int64 a = Rng.next_int64 b)

(* A copy continues the stream from the shared state, and drawing from
   it leaves the original where it was. *)
let test_copy_replays () =
  let a = Rng.create 9 in
  ignore (Rng.next_int64 a);
  let c = Rng.copy a in
  let from_copy = List.init 5 (fun _ -> Rng.next_int64 c) in
  let from_original = List.init 5 (fun _ -> Rng.next_int64 a) in
  check_bool "copy replays the original" true (from_copy = from_original)

let prop_float_range =
  qtest "float in [0,1)" QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng in
      x >= 0.0 && x < 1.0)

let prop_int_range =
  qtest "int in range"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = Array.init n (fun i -> i) in
      Rng.shuffle rng a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let test_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean near 0" true (Float.abs mean < 0.05);
  check_bool "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_multiset_signature () =
  Alcotest.(check string)
    "order independent"
    (Sig_hash.of_int_multiset [| 3; 1; 2 |])
    (Sig_hash.of_int_multiset [| 2; 3; 1 |]);
  check_bool "different multisets differ" false
    (Sig_hash.of_int_multiset [| 1; 1; 2 |] = Sig_hash.of_int_multiset [| 1; 2; 2 |])

let test_multiset_no_mutation () =
  let a = [| 3; 1; 2 |] in
  let _ = Sig_hash.of_int_multiset a in
  check_bool "input untouched" true (a = [| 3; 1; 2 |])

let test_list_signature_unambiguous () =
  (* {1, 23} and {1, 2, 3} concatenate to the same digits once sorted;
     their signatures must not collide. *)
  check_bool "no concatenation ambiguity" false
    (Sig_hash.of_int_multiset [| 23; 1 |] = Sig_hash.of_int_multiset [| 3; 1; 2 |])

let test_float_vector_rounding () =
  Alcotest.(check string)
    "rounds at decimals"
    (Sig_hash.of_float_vector ~decimals:3 [| 0.12345 |])
    (Sig_hash.of_float_vector ~decimals:3 [| 0.12312 |]);
  check_bool "distinguishes beyond tolerance" false
    (Sig_hash.of_float_vector ~decimals:3 [| 0.123 |] = Sig_hash.of_float_vector ~decimals:3 [| 0.125 |])

let test_float_vector_negative_zero () =
  Alcotest.(check string)
    "-0 = 0"
    (Sig_hash.of_float_vector [| -0.0 |])
    (Sig_hash.of_float_vector [| 0.0 |])

let test_interner () =
  let i = Sig_hash.Interner.create () in
  let a = Sig_hash.Interner.intern i "x" in
  let b = Sig_hash.Interner.intern i "y" in
  let a' = Sig_hash.Interner.intern i "x" in
  check_int "first id" 0 a;
  check_int "second id" 1 b;
  check_int "stable" a a'

let test_table_rendering () =
  let t = Tbl.create ~headers:[ "a"; "bb" ] in
  let t = Tbl.add_row t [ "xxx"; "y" ] in
  let s = Tbl.to_string t in
  check_bool "has header" true (String.length s > 0);
  check_bool "header row present" true
    (String.sub s 0 1 = "|");
  Alcotest.check_raises "ragged row rejected" (Invalid_argument "Tbl.add_row: row width differs from header width")
    (fun () -> ignore (Tbl.add_row t [ "only-one" ]))

let test_fmt_float () =
  Alcotest.(check string) "integer floats" "3" (Tbl.fmt_float 3.0);
  Alcotest.(check string) "fractional" "0.5000" (Tbl.fmt_float 0.5)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* Touch "a" so "b" becomes least-recently used. *)
  check_bool "a present" true (Lru.get c "a" = Some 1);
  Lru.put c "d" 4;
  check_bool "b evicted" false (Lru.mem c "b");
  check_bool "a survives" true (Lru.mem c "a");
  check_bool "c survives" true (Lru.mem c "c");
  check_bool "d inserted" true (Lru.mem c "d");
  check_int "evictions" 1 (Lru.evictions c);
  Alcotest.(check (list string)) "mru order" [ "d"; "a"; "c" ] (Lru.keys_mru_first c)

let test_lru_counters () =
  let c = Lru.create ~capacity:2 () in
  check_bool "miss on empty" true (Lru.get c "x" = None);
  Lru.put c "x" 10;
  check_bool "hit" true (Lru.get c "x" = Some 10);
  check_bool "second miss" true (Lru.get c "y" = None);
  check_int "hits" 1 (Lru.hits c);
  check_int "misses" 2 (Lru.misses c)

let test_lru_update_moves_front () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  (* Re-putting "a" refreshes it, so "b" is the one evicted. *)
  Lru.put c "a" 100;
  Lru.put c "c" 3;
  check_bool "b evicted" false (Lru.mem c "b");
  check_bool "updated value" true (Lru.get c "a" = Some 100);
  check_int "length at capacity" 2 (Lru.length c)

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 () in
  Lru.put c 1 "one";
  Lru.put c 2 "two";
  check_bool "old gone" false (Lru.mem c 1);
  check_bool "new present" true (Lru.mem c 2);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be at least 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()));
  Lru.clear c;
  check_int "cleared" 0 (Lru.length c);
  check_bool "clear keeps counters" true (Lru.misses c >= 0)

let test_clock_monotonic () =
  let t0 = Clock.now_ns () in
  let t1 = Clock.now_ns () in
  check_bool "non-decreasing" true (Int64.compare t1 t0 >= 0);
  check_bool "elapsed non-negative" true (Int64.compare (Clock.elapsed_ns t0) 0L >= 0);
  check_float "ns_to_ms" 1.5 (Clock.ns_to_ms 1_500_000L);
  check_float "ns_to_s" 0.002 (Clock.ns_to_s 2_000_000L);
  check_bool "no deadline never expires" true (not (Clock.expired None));
  check_bool "zero timeout means none" true (Clock.deadline_after 0.0 = None);
  let d = Clock.deadline_after 3600.0 in
  check_bool "future deadline not expired" true (not (Clock.expired d));
  check_bool "past deadline expired" true (Clock.expired (Some (Int64.sub (Clock.now_ns ()) 1L)))

let test_lru_byte_budget () =
  (* Three 40-byte entries fit a 100-byte budget only two at a time. *)
  let c = Lru.create ~max_bytes:100 ~capacity:10 () in
  Lru.put ~bytes:40 c "a" 1;
  Lru.put ~bytes:40 c "b" 2;
  check_int "bytes accumulate" 80 (Lru.bytes_used c);
  Lru.put ~bytes:40 c "c" 3;
  check_bool "a evicted by byte budget" false (Lru.mem c "a");
  check_bool "b survives" true (Lru.mem c "b");
  check_bool "c survives" true (Lru.mem c "c");
  check_int "bytes after eviction" 80 (Lru.bytes_used c);
  check_int "byte eviction counted" 1 (Lru.evictions c);
  check_int "budget accessor" 100 (Lru.max_bytes c)

let test_lru_byte_replace () =
  (* Replacing a key re-accounts its bytes rather than double-counting. *)
  let c = Lru.create ~max_bytes:100 ~capacity:10 () in
  Lru.put ~bytes:60 c "a" 1;
  Lru.put ~bytes:20 c "a" 2;
  check_int "replace re-accounts" 20 (Lru.bytes_used c);
  check_bool "replaced value" true (Lru.get c "a" = Some 2);
  Lru.put ~bytes:80 c "b" 3;
  check_bool "both fit after shrink" true (Lru.mem c "a" && Lru.mem c "b");
  check_int "full budget used" 100 (Lru.bytes_used c)

let test_lru_oversized_rejected () =
  (* An entry bigger than the whole budget must not flush the cache. *)
  let c = Lru.create ~max_bytes:100 ~capacity:10 () in
  Lru.put ~bytes:50 c "a" 1;
  Lru.put ~bytes:500 c "huge" 2;
  check_bool "oversized not inserted" false (Lru.mem c "huge");
  check_bool "existing entry survives" true (Lru.mem c "a");
  check_int "bytes unchanged" 50 (Lru.bytes_used c);
  (* Re-putting an existing key with an oversized estimate drops the stale
     binding instead of keeping the old value under a lying size. *)
  Lru.put ~bytes:500 c "a" 3;
  check_bool "stale binding dropped" false (Lru.mem c "a");
  check_int "empty after drop" 0 (Lru.bytes_used c);
  (* clear resets the byte gauge. *)
  Lru.put ~bytes:30 c "x" 1;
  Lru.clear c;
  check_int "clear resets bytes" 0 (Lru.bytes_used c)

let test_clock_check () =
  (* Clock.check is the cooperative-cancellation primitive threaded
     through the WL/k-WL/HOM kernels. *)
  Clock.check None;
  Clock.check (Clock.deadline_after 3600.0);
  Alcotest.check_raises "past deadline raises" Clock.Deadline_exceeded (fun () ->
      Clock.check (Some (Int64.sub (Clock.now_ns ()) 1L)))

(* --- Int_sort: closure-free sort must equal Array.sort ------------------- *)

let prop_int_sort_matches =
  qtest ~count:200 "int_sort equals Array.sort"
    QCheck.(list int)
    (fun xs ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      Glql_util.Int_sort.sort a;
      Array.sort compare b;
      a = b)

let test_int_sort_copy () =
  let a = [| 5; 3; 9; 3; 1 |] in
  let sorted = Glql_util.Int_sort.sorted_copy a in
  check_bool "sorted" true (sorted = [| 1; 3; 3; 5; 9 |]);
  check_bool "input preserved" true (a = [| 5; 3; 9; 3; 1 |])

let prop_int_select_matches =
  qtest ~count:200 "int_sort select = sorted_copy.(k)"
    QCheck.(pair (list_of_size Gen.(0 -- 2000) (int_range (-50) 50)) small_nat)
    (fun (xs, k) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      n = 0
      ||
      let sorted = Glql_util.Int_sort.sorted_copy a in
      let k = k mod n in
      (* Selections may follow one another on the same array. *)
      Glql_util.Int_sort.select a k = sorted.(k)
      && Glql_util.Int_sort.select a (n - 1 - k) = sorted.(n - 1 - k))

let test_int_select_shapes () =
  let n = 5000 in
  List.iter
    (fun (name, f) ->
      let sorted = Glql_util.Int_sort.sorted_copy (Array.init n f) in
      List.iter
        (fun k ->
          check_int (Printf.sprintf "%s rank %d" name k) sorted.(k)
            (Glql_util.Int_sort.select (Array.init n f) k))
        [ 0; 1; n / 2; (99 * n / 100) - 1; n - 1 ])
    [
      ("ascending", Fun.id);
      ("descending", fun i -> n - i);
      ("constant", fun _ -> 7);
      ("organ pipe", fun i -> min i (n - i));
      ("sawtooth", fun i -> i mod 17);
    ];
  Alcotest.check_raises "rank out of bounds"
    (Invalid_argument "Int_sort.select: rank out of bounds") (fun () ->
      ignore (Glql_util.Int_sort.select [| 1; 2 |] 2))

(* --- Stable_hash: pinned vectors and placement properties ---------------- *)

let test_stable_hash_vectors () =
  (* Published FNV-1a 64-bit reference values: the hash must never
     change across builds or the sharded registry re-shards silently. *)
  Alcotest.(check int64) "offset basis" 0xcbf29ce484222325L (Glql_util.Stable_hash.hash64 "");
  Alcotest.(check int64) "'a'" 0xaf63dc4c8601ec8cL (Glql_util.Stable_hash.hash64 "a");
  Alcotest.(check int64) "'foobar'" 0x85944171f73967e8L (Glql_util.Stable_hash.hash64 "foobar");
  (* Placement pins: e2e and CI pick kill victims from these. *)
  check_int "petersen @3" 0 (Glql_util.Stable_hash.shard ~shards:3 "petersen");
  check_int "grid5x5 @3" 2 (Glql_util.Stable_hash.shard ~shards:3 "grid5x5")

let prop_stable_hash_shard =
  qtest ~count:200 "shard stable and in range"
    QCheck.(pair string (int_range 1 64))
    (fun (name, shards) ->
      let s1 = Glql_util.Stable_hash.shard ~shards name in
      let s2 = Glql_util.Stable_hash.shard ~shards name in
      s1 = s2 && s1 >= 0 && s1 < shards)

(* --- Json.parse: inverse of the printer --------------------------------- *)

let json_roundtrip_cases () =
  let module J = Glql_util.Json in
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Str "he said \"hi\"\n\ttab";
      J.List [ J.Int 1; J.Str "x"; J.Null ];
      J.Obj [ ("b", J.Int 2); ("a", J.List []); ("nested", J.Obj [ ("k", J.Bool false) ]) ];
    ]
  in
  List.iter
    (fun j ->
      match J.parse (J.to_string j) with
      | Ok j' ->
          Alcotest.(check string) "roundtrip" (J.to_string j) (J.to_string j')
      | Error e -> Alcotest.failf "parse failed: %s" e)
    cases;
  (* Field order is preserved — the router's merge relies on it. *)
  (match J.parse "{\"z\":1,\"a\":2}" with
  | Ok j -> Alcotest.(check string) "field order kept" "{\"z\":1,\"a\":2}" (J.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Rejections. *)
  check_bool "trailing garbage" true (Result.is_error (J.parse "{} x"));
  check_bool "unterminated string" true (Result.is_error (J.parse "\"abc"));
  check_bool "bare word" true (Result.is_error (J.parse "petersen"))

let prop_json_int_roundtrip =
  qtest ~count:200 "json int roundtrip" QCheck.int (fun i ->
      match Glql_util.Json.parse (string_of_int i) with
      | Ok (Glql_util.Json.Int j) -> i = j
      | _ -> false)

(* The float rule of the JSON printer, as it was written with Printf: the
   printer must render every finite float byte-identically to it. *)
let printf_float_rule f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_float f = Glql_util.Json.to_string (Glql_util.Json.Float f)

let json_float_edges =
  [
    0.0; -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; 0x1p53 -. 1.0; 0x1p53 +. 1.0;
    -.(0x1p53 +. 1.0); 5e-324; -5e-324; max_float; -.max_float; Float.nan; Float.infinity;
    Float.neg_infinity; 0.1; 1.5; -2.5; 1e300;
  ]

let test_json_float_edges () =
  List.iter
    (fun f -> Alcotest.(check string) (Printf.sprintf "%h" f) (printf_float_rule f) (json_float f))
    json_float_edges

(* Random bit patterns cover both signs, subnormals and every exponent;
   random integers cover the integer branch and its 1e15 threshold. *)
let prop_json_float_matches_printf =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, map Int64.float_of_bits int64);
          (2, map float_of_int int);
          (2, map float_of_int (int_range (-1_000_000) 1_000_000));
          (1, map (fun d -> 1e15 +. float_of_int d) (int_range (-1000) 1000));
          (1, oneofl json_float_edges);
        ])
  in
  qtest ~count:120_000 "json float = Printf rule"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f -> json_float f = printf_float_rule f)

(* The flat writers render exactly what the boxed tree of the same
   values renders, on tables of 0-50 rows and widths 1-4. *)
let prop_json_flat_rows_match_tree =
  let value =
    QCheck.Gen.(
      frequency [ (3, map Int64.float_of_bits int64); (1, oneofl json_float_edges) ])
  in
  let gen =
    QCheck.Gen.(
      int_range 0 50 >>= fun rows ->
      int_range 1 4 >>= fun width ->
      map (fun data -> (rows, width, Array.of_list data)) (list_repeat (rows * width) value))
  in
  let print (rows, width, data) =
    Printf.sprintf "%dx%d [%s]" rows width
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") data)))
  in
  qtest ~count:2_000 "json flat rows = tree rule" (QCheck.make ~print gen)
    (fun (rows, width, data) ->
      let module J = Glql_util.Json in
      let floats off len = J.List (List.init len (fun i -> J.Float data.(off + i))) in
      J.to_string (J.Float_rows { rows; width; data })
      = J.to_string (J.List (List.init rows (fun r -> floats (r * width) width)))
      && J.to_string (J.Floats data) = J.to_string (floats 0 (Array.length data)))

let suite =
  ( "util",
    [
      case "rng determinism" test_determinism;
      case "rng seeds differ" test_different_seeds;
      case "rng copy replays" test_copy_replays;
      prop_float_range;
      prop_int_range;
      prop_shuffle_permutation;
      case "gaussian moments" test_gaussian_moments;
      case "multiset signature" test_multiset_signature;
      case "multiset input preserved" test_multiset_no_mutation;
      case "list signature unambiguous" test_list_signature_unambiguous;
      case "float vector rounding" test_float_vector_rounding;
      case "float vector -0" test_float_vector_negative_zero;
      case "interner" test_interner;
      case "table rendering" test_table_rendering;
      case "float formatting" test_fmt_float;
      case "lru eviction order" test_lru_eviction_order;
      case "lru counters" test_lru_counters;
      case "lru update refreshes" test_lru_update_moves_front;
      case "lru capacity edge cases" test_lru_capacity_one;
      case "clock helpers" test_clock_monotonic;
      case "lru byte budget eviction" test_lru_byte_budget;
      case "lru byte budget replace" test_lru_byte_replace;
      case "lru oversized entries rejected" test_lru_oversized_rejected;
      case "clock cooperative check" test_clock_check;
      prop_int_sort_matches;
      case "int_sort sorted_copy" test_int_sort_copy;
      prop_int_select_matches;
      case "int_sort select on shaped inputs" test_int_select_shapes;
      case "stable hash pinned vectors" test_stable_hash_vectors;
      prop_stable_hash_shard;
      case "json parse roundtrip" json_roundtrip_cases;
      prop_json_int_roundtrip;
      case "json float edge cases" test_json_float_edges;
      prop_json_float_matches_printf;
      prop_json_flat_rows_match_tree;
    ] )
